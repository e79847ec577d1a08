module Robdd = Dpa_bdd.Robdd
module Ordering = Dpa_bdd.Ordering
module Build = Dpa_bdd.Build
module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Eval = Dpa_logic.Eval

let test_terminals () =
  let m = Robdd.create ~nvars:2 in
  Alcotest.(check bool) "false terminal" true (Robdd.is_terminal Robdd.bdd_false);
  Alcotest.(check bool) "true terminal" true (Robdd.is_terminal Robdd.bdd_true);
  Alcotest.(check int) "neg false" Robdd.bdd_true (Robdd.neg m Robdd.bdd_false);
  Alcotest.(check int) "neg true" Robdd.bdd_false (Robdd.neg m Robdd.bdd_true)

let test_var_and_eval () =
  let m = Robdd.create ~nvars:3 in
  let x0 = Robdd.var m 0 and x2 = Robdd.var m 2 in
  Alcotest.(check bool) "x0 true" true (Robdd.eval m x0 [| true; false; false |]);
  Alcotest.(check bool) "x0 false" false (Robdd.eval m x0 [| false; true; true |]);
  let f = Robdd.apply_and m x0 (Robdd.neg m x2) in
  Alcotest.(check bool) "x0 ∧ ¬x2" true (Robdd.eval m f [| true; true; false |]);
  Alcotest.(check bool) "x0 ∧ ¬x2 f" false (Robdd.eval m f [| true; true; true |])

let test_canonicity () =
  let m = Robdd.create ~nvars:2 in
  let a = Robdd.var m 0 and b = Robdd.var m 1 in
  (* (a ∧ b) ∨ (a ∧ ¬b) = a: structural identity must hold *)
  let lhs =
    Robdd.apply_or m (Robdd.apply_and m a b) (Robdd.apply_and m a (Robdd.neg m b))
  in
  Alcotest.(check int) "reduced to a" a lhs;
  (* De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b *)
  let dm1 = Robdd.neg m (Robdd.apply_and m a b) in
  let dm2 = Robdd.apply_or m (Robdd.neg m a) (Robdd.neg m b) in
  Alcotest.(check int) "de morgan" dm1 dm2

let test_xor_and_size () =
  let m = Robdd.create ~nvars:3 in
  let a = Robdd.var m 0 and b = Robdd.var m 1 and c = Robdd.var m 2 in
  let x = Robdd.apply_xor m (Robdd.apply_xor m a b) c in
  (* 3-variable parity has 2 nodes per level under any order *)
  Alcotest.(check int) "parity size" (1 + 2 + 2) (Robdd.size m x);
  Alcotest.(check bool) "parity eval" true (Robdd.eval m x [| true; true; true |]);
  Alcotest.(check bool) "parity eval2" false (Robdd.eval m x [| true; true; false |])

let test_probability_basic () =
  let m = Robdd.create ~nvars:2 in
  let a = Robdd.var m 0 and b = Robdd.var m 1 in
  let f = Robdd.apply_and m a b in
  Testkit.check_approx "P(ab)" 0.06 (Robdd.probability m [| 0.2; 0.3 |] f);
  let g = Robdd.apply_or m a b in
  Testkit.check_approx "P(a+b)" (1.0 -. (0.8 *. 0.7)) (Robdd.probability m [| 0.2; 0.3 |] g);
  Testkit.check_approx "P(true)" 1.0 (Robdd.probability m [| 0.2; 0.3 |] Robdd.bdd_true);
  Testkit.check_approx "P(false)" 0.0 (Robdd.probability m [| 0.2; 0.3 |] Robdd.bdd_false)

let test_var_bounds () =
  let m = Robdd.create ~nvars:2 in
  Alcotest.check_raises "level oob" (Invalid_argument "Robdd.var: level 2 out of range")
    (fun () -> ignore (Robdd.var m 2))

(* property: BDD built from a netlist computes the same outputs as direct
   evaluation, under every ordering heuristic *)
let prop_bdd_equals_eval =
  Testkit.qcheck_case ~count:60 ~name:"bdd matches netlist evaluation"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let check_order order =
        let b = Build.of_netlist ~order net in
        let pos_of_level = Build.order b in
        let level_of_pos = Array.make (Array.length pos_of_level) 0 in
        Array.iteri (fun lvl pos -> level_of_pos.(pos) <- lvl) pos_of_level;
        Testkit.same_function (Netlist.num_inputs net)
          (fun vec -> Array.to_list (Eval.outputs net vec))
          (fun vec ->
            let assignment = Array.make (Array.length vec) false in
            Array.iteri (fun pos v -> assignment.(level_of_pos.(pos)) <- v) vec;
            Array.to_list
              (Array.map
                 (fun (_, d) -> Robdd.eval (Build.manager b) (Build.roots b).(d) assignment)
                 (Netlist.outputs net)))
      in
      check_order (Ordering.reverse_topological net)
      && check_order (Ordering.topological net)
      && check_order (Ordering.declaration net)
      && check_order (Ordering.disturbed net))

(* property: BDD probabilities equal brute-force enumeration *)
let prop_probability_exact =
  Testkit.qcheck_case ~count:40 ~name:"bdd probabilities are exact"
    QCheck2.Gen.(pair (Testkit.arbitrary_netlist ()) (Testkit.probs_gen 5))
    (fun (net, probs) ->
      let expected = Eval.exact_probabilities net probs in
      let actual = Build.probabilities ~input_probs:probs net in
      let ok = ref true in
      Array.iteri
        (fun i e -> if not (Testkit.approx ~eps:1e-9 e actual.(i)) then ok := false)
        expected;
      !ok)

(* property: at full width (12 inputs), the packed-table kernel still agrees
   with exhaustive truth-table enumeration to 1e-12, through both a built
   netlist's read-out and the one-call entry point *)
let prop_probability_exact_wide =
  Testkit.qcheck_case ~count:20 ~name:"bdd probabilities exact at 12 inputs"
    QCheck2.Gen.(
      pair (Testkit.arbitrary_netlist ~n_inputs:12 ~max_gates:20 ()) (Testkit.probs_gen 12))
    (fun (net, probs) ->
      let expected = Eval.exact_probabilities net probs in
      let b = Build.of_netlist net in
      let shared = Build.node_probabilities b ~input_probs:probs in
      let fresh = Build.probabilities ~input_probs:probs net in
      let ok = ref true in
      Array.iteri
        (fun i e ->
          if
            not
              (Testkit.approx ~eps:1e-12 e shared.(i)
              && Testkit.approx ~eps:1e-12 e fresh.(i))
          then ok := false)
        expected;
      !ok)

(* property: a persistent prob_cache returns the same numbers as the
   fresh-memo path even as the manager keeps growing under it *)
let prop_prob_cache_consistent =
  Testkit.qcheck_case ~count:40 ~name:"prob_cache matches probability"
    QCheck2.Gen.(pair (Testkit.arbitrary_netlist ()) (Testkit.probs_gen 5))
    (fun (net, probs) ->
      let b = Build.of_netlist net in
      let level_probs = Array.map (fun pos -> probs.(pos)) (Build.order b) in
      let cache = Robdd.prob_cache (Build.manager b) level_probs in
      let before =
        Array.map (Robdd.cached_probability cache) (Build.roots b)
      in
      (* grow the manager after the cache was created *)
      let extra =
        Robdd.apply_xor (Build.manager b) (Build.roots b).(0)
          (Robdd.neg (Build.manager b) (Build.roots b).(Array.length (Build.roots b) - 1))
      in
      let ok = ref (Testkit.approx ~eps:1e-12
                      (Robdd.probability (Build.manager b) level_probs extra)
                      (Robdd.cached_probability cache extra)) in
      Array.iteri
        (fun i root ->
          if
            not
              (Testkit.approx ~eps:1e-12 before.(i)
                 (Robdd.probability (Build.manager b) level_probs root))
          then ok := false)
        (Build.roots b);
      !ok)

(* ---- the shared builder on gates a mapped block never holds ---- *)

(* Random netlists over NOT, BUF, XOR, AND and OR (inputs first), with a
   pair of distinct input positions for the rewiring leg. *)
let gen_gate_netlist =
  let open QCheck2.Gen in
  let* n_inputs = int_range 2 6 in
  let* n_gates = int_range 1 16 in
  let* seeds = list_repeat (4 * n_gates) (int_bound 1_000_000) in
  let* n_outputs = int_range 1 3 in
  let* out_seeds = list_repeat n_outputs (int_bound 1_000_000) in
  let* i = int_bound (n_inputs - 1) in
  let* j = int_bound (n_inputs - 2) in
  let net = Netlist.create ~name:"gates" () in
  for _ = 1 to n_inputs do
    ignore (Netlist.add_input net)
  done;
  let seeds = Array.of_list seeds and cursor = ref 0 in
  let next () =
    incr cursor;
    seeds.(!cursor - 1)
  in
  for _ = 1 to n_gates do
    let pick () = next () mod Netlist.size net in
    ignore
      (Netlist.add_gate net
         (match next () mod 5 with
         | 0 -> Gate.Not (pick ())
         | 1 -> Gate.Buf (pick ())
         | 2 -> Gate.Xor (pick (), pick ())
         | 3 -> Gate.And [| pick (); pick () |]
         | _ -> Gate.Or [| pick (); pick () |]))
  done;
  List.iteri
    (fun k s -> Netlist.add_output net (Printf.sprintf "o%d" k) (s mod Netlist.size net))
    out_seeds;
  return (net, i, if j >= i then j + 1 else j)

let print_gate_case (net, i, j) =
  Printf.sprintf "%s; input %d read as NOT input %d" (Dpa_logic.Io.to_string net) j i

(* p = 0.7 everywhere, and a seeded vector away from the dyadic rationals *)
let gate_case_probs net =
  let n = Netlist.num_inputs net in
  let rng = Dpa_util.Rng.create 11 in
  [ Array.make n 0.7; Array.init n (fun _ -> 0.05 +. Dpa_util.Rng.float rng 0.9) ]

let bits = Array.map Int64.bits_of_float

(* [net] with input [j]'s fanouts moved to a NOT of input [i], placed
   after the inputs; returns the copy and the old-id → new-id map. *)
let rewire net ~i ~j =
  let ins = Netlist.inputs net in
  let copy = Netlist.create ~name:"rewired" () in
  let map = Array.make (Netlist.size net) (-1) in
  Array.iter (fun id -> map.(id) <- Netlist.add_input copy) ins;
  map.(ins.(j)) <- Netlist.add_gate copy (Gate.Not map.(ins.(i)));
  Netlist.iter_nodes
    (fun id g ->
      if map.(id) < 0 then map.(id) <- Netlist.add_gate copy (Gate.map_fanins (fun x -> map.(x)) g))
    net;
  Array.iter (fun (name, d) -> Netlist.add_output copy name map.(d)) (Netlist.outputs net);
  (copy, map)

let prop_build_leaf_and_cones =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~print:print_gate_case
       ~name:"shared builder: cones and leaf map on any gate" gen_gate_netlist
    @@ fun (net, i, j) ->
      let order = Ordering.reverse_topological net in
      let whole = Build.of_netlist ~order net in
      (* one output cone at a time: same bits wherever a cone reaches, and
         nothing built outside every cone *)
      let coned = Build.start ~order ~leaf:(fun k -> (k, false)) net in
      let cones = Dpa_logic.Cone.of_outputs net in
      Array.iter (fun c -> Build.build coned ~within:(Dpa_util.Bitset.mem c)) cones;
      let in_cone id = Array.exists (fun c -> Dpa_util.Bitset.mem c id) cones in
      (* input j read as input i's variable, complemented *)
      let leafed =
        Build.start ~order ~leaf:(fun k -> if k = j then (i, true) else (k, false)) net
      in
      Build.build leafed ~within:(fun _ -> true);
      let rewired, map = rewire net ~i ~j in
      let reference = Build.of_netlist ~order rewired in
      List.for_all
        (fun input_probs ->
          let w = bits (Build.node_probabilities whole ~input_probs) in
          let c = bits (Build.node_probabilities coned ~input_probs) in
          let l = bits (Build.node_probabilities leafed ~input_probs) in
          let r = bits (Build.node_probabilities reference ~input_probs) in
          let nan = Int64.bits_of_float Float.nan in
          Array.for_all Fun.id
            (Array.init (Netlist.size net) (fun id ->
                 (if in_cone id then c.(id) = w.(id) else c.(id) = nan)
                 && l.(id) = r.(map.(id)))))
        (gate_case_probs net))

let test_stats_counters () =
  let m = Robdd.create ~nvars:4 in
  let s0 = Robdd.stats m in
  Alcotest.(check int) "terminals only" 2 s0.Robdd.nodes;
  let a = Robdd.var m 0 and b = Robdd.var m 1 in
  let f = Robdd.apply_and m a b in
  let _ = Robdd.apply_and m a b in
  let s1 = Robdd.stats m in
  Alcotest.(check bool) "nodes grew" true (s1.Robdd.nodes > s0.Robdd.nodes);
  Alcotest.(check bool) "unique probed" true (s1.Robdd.unique_probes > 0);
  Alcotest.(check bool) "ite cache hit on repeat" true (s1.Robdd.ite_hits > 0);
  Alcotest.(check int) "nodes = total_nodes" (Robdd.total_nodes m) s1.Robdd.nodes;
  (* interning: the repeated apply created no new node *)
  Alcotest.(check int) "f interned" f (Robdd.apply_and m a b);
  ignore (Format.asprintf "%a" Robdd.pp_stats s1)

(* ---- the computed table is only a memo ---- *)

module Sift = Dpa_bdd.Sift

(* A loop that builds every node of a netlist, in id order, into a
   manager the test chose, reading gates and input levels from arrays
   prepared up front: nothing in [build_range] allocates, so whatever Gc
   counts while it runs is the kernel's own. *)
type plan = {
  gates : Gate.t array;
  level : int array;  (* input node id → current level; -1 for gates *)
  roots : Robdd.node array;
  order : int array;  (* level → input position, permuted by a sift *)
  inputs : int array;
}

let set_levels p = Array.iteri (fun lvl pos -> p.level.(p.inputs.(pos)) <- lvl) p.order

let plan_of net =
  let n = Netlist.size net in
  let p =
    {
      gates = Array.init n (Netlist.gate net);
      level = Array.make n (-1);
      roots = Array.make n Robdd.bdd_false;
      order = Ordering.reverse_topological net;
      inputs = Netlist.inputs net;
    }
  in
  set_levels p;
  p

let build_range m p lo hi =
  for i = lo to hi - 1 do
    let r =
      match p.gates.(i) with
      | Gate.Input -> Robdd.var m p.level.(i)
      | Gate.Const b -> if b then Robdd.bdd_true else Robdd.bdd_false
      | Gate.Buf x -> p.roots.(x)
      | Gate.Not x -> Robdd.neg m p.roots.(x)
      | Gate.And xs ->
        let acc = ref Robdd.bdd_true in
        for k = 0 to Array.length xs - 1 do
          acc := Robdd.apply_and m !acc p.roots.(xs.(k))
        done;
        !acc
      | Gate.Or xs ->
        let acc = ref Robdd.bdd_false in
        for k = 0 to Array.length xs - 1 do
          acc := Robdd.apply_or m !acc p.roots.(xs.(k))
        done;
        !acc
      | Gate.Xor (a, b) -> Robdd.apply_xor m p.roots.(a) p.roots.(b)
    in
    p.roots.(i) <- r
  done

(* non-dyadic input probabilities, so a reassociated sum would show *)
let level_probs p =
  let n = Array.length p.inputs in
  Array.map (fun pos -> float_of_int (pos + 1) /. float_of_int (n + 2)) p.order

let prob_bits m p =
  let cache = Robdd.prob_cache m (level_probs p) in
  Array.map (fun r -> Int64.bits_of_float (Robdd.cached_probability cache r)) p.roots

(* What a build shows apart from its memo traffic: the root ids, the node
   counts and the probability bits — after a plain build, at the point a
   node cap stops a build, and across a sift between two half-builds. *)
type observed = {
  root_ids : int array;
  total : int;
  live : int;
  probs : int64 array;
  stop : int * int * int * float;  (* node id, total, live, report's spent *)
  sifted_roots : int array;
  sifted_order : int array;
  sifted_counts : int * int;
  sifted_probs : int64 array;
}

let observe net ~cache_capacity =
  let n = Netlist.size net in
  let fresh p = Robdd.create_sized ~nvars:(Array.length p.inputs) ~cache_capacity in
  let p = plan_of net in
  let m = fresh p in
  build_range m p 0 n;
  let total = Robdd.total_nodes m in
  let probs = prob_bits m p in
  let capped = plan_of net in
  let mc = fresh capped in
  Robdd.set_budget ~max_nodes:(max 3 (total / 2)) mc;
  let stop = ref (-1, 0, 0, 0.0) in
  (try
     for i = 0 to n - 1 do
       try build_range mc capped i (i + 1)
       with Dpa_util.Dpa_error.Budget_exceeded r ->
         stop := (i, Robdd.total_nodes mc, Robdd.live_nodes mc, r.Dpa_util.Dpa_error.spent);
         raise Exit
     done
   with Exit -> ());
  let s = plan_of net in
  let ms = fresh s in
  build_range ms s 0 (n / 2);
  let built = List.filter (fun r -> not (Robdd.is_terminal r)) (Array.to_list (Array.sub s.roots 0 (n / 2))) in
  ignore (Sift.sift ~roots:built ~order:s.order ms);
  set_levels s;
  build_range ms s (n / 2) n;
  {
    root_ids = Array.copy p.roots;
    total;
    live = Robdd.live_nodes m;
    probs;
    stop = !stop;
    sifted_roots = Array.copy s.roots;
    sifted_order = Array.copy s.order;
    sifted_counts = (Robdd.total_nodes ms, Robdd.live_nodes ms);
    sifted_probs = prob_bits ms s;
  }

let check_capacity_invariance name net =
  let a = observe net ~cache_capacity:1 and b = observe net ~cache_capacity:(1 lsl 16) in
  let ids msg x y = Alcotest.(check (array int)) (name ^ ": " ^ msg) x y in
  ids "root ids" a.root_ids b.root_ids;
  Alcotest.(check (pair int int)) (name ^ ": total and live nodes") (a.total, a.live) (b.total, b.live);
  Alcotest.(check bool) (name ^ ": probability bits") true (a.probs = b.probs);
  let i, t, l, spent = a.stop and i', t', l', spent' = b.stop in
  Alcotest.(check (list int)) (name ^ ": budget stop (node, total, live)") [ i; t; l ] [ i'; t'; l' ];
  Testkit.check_bits (name ^ ": budget spent") spent spent';
  ids "root ids across a sift" a.sifted_roots b.sifted_roots;
  ids "order after the sift" a.sifted_order b.sifted_order;
  Alcotest.(check (pair int int)) (name ^ ": counts across a sift") a.sifted_counts b.sifted_counts;
  Alcotest.(check bool) (name ^ ": probability bits across a sift") true
    (a.sifted_probs = b.sifted_probs)

let prop_cache_capacity_invariance =
  Testkit.qcheck_case ~count:80 ~name:"computed table size changes no result"
    (Testkit.arbitrary_netlist ~n_inputs:8 ~max_gates:40 ())
    (fun net ->
      check_capacity_invariance "random" net;
      true)

let test_cache_capacity_invariance_circuits () =
  List.iter
    (fun path -> check_capacity_invariance path (Testkit.load_blif path))
    Testkit.data_files;
  check_capacity_invariance "mult8" (Testkit.comb_of_profile "mult8")

(* words the measured thunk allocated on the minor heap, net of what the
   two readings themselves cost *)
let minor_words_of f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  f ();
  let c = Gc.minor_words () in
  int_of_float (c -. b -. (b -. a))

let test_kernel_allocation () =
  let net = Testkit.comb_of_profile "mult8" in
  let n = Netlist.size net in
  let p = plan_of net in
  let m = Robdd.create_sized ~nvars:(Array.length p.inputs) ~cache_capacity:1 in
  let fresh = minor_words_of (fun () -> build_range m p 0 n) in
  let nodes = Robdd.total_nodes m in
  Alcotest.(check int) "a repeated build allocates nothing" 0
    (minor_words_of (fun () -> build_range m p 0 n));
  Alcotest.(check int) "no node was added" nodes (Robdd.total_nodes m);
  (* three distinct internal nodes, so no terminal case answers the call *)
  let internal = List.sort_uniq compare (List.filter (fun r -> not (Robdd.is_terminal r)) (Array.to_list p.roots)) in
  let f, g, h =
    match List.rev internal with
    | f :: g :: h :: _ -> (f, g, h)
    | _ -> Alcotest.fail "mult8 has fewer than three internal roots"
  in
  let r = Robdd.ite m f g h in
  let hits = (Robdd.stats m).Robdd.ite_hits in
  Alcotest.(check int) "ite hits allocate nothing" 0
    (minor_words_of (fun () ->
         for _ = 1 to 1000 do
           ignore (Robdd.ite m f g h)
         done));
  Alcotest.(check bool) "they were hits" true ((Robdd.stats m).Robdd.ite_hits >= hits + 1000);
  Alcotest.(check int) "same result" r (Robdd.ite m f g h);
  (* a fresh build pays for the manager's first small arrays; its node
     store and tables grow on the major heap, so its minor words do not
     follow its node count *)
  let small = Testkit.load_blif "../data/frg1_synthetic.blif" in
  let ps = plan_of small in
  let ms = Robdd.create_sized ~nvars:(Array.length ps.inputs) ~cache_capacity:1 in
  let fresh_small = minor_words_of (fun () -> build_range ms ps 0 (Netlist.size small)) in
  Alcotest.(check bool)
    (Printf.sprintf "mult8 is the larger build (%d vs %d nodes)" nodes (Robdd.total_nodes ms))
    true
    (nodes > 20 * Robdd.total_nodes ms);
  if fresh > fresh_small + 2048 then
    Alcotest.failf "fresh mult8 build allocated %d minor words for %d nodes (frg1: %d for %d)"
      fresh nodes fresh_small (Robdd.total_nodes ms)

(* property: orderings are permutations of input positions *)
let prop_orderings_are_permutations =
  Testkit.qcheck_case ~count:60 ~name:"orderings are permutations"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let is_perm a =
        let n = Netlist.num_inputs net in
        Array.length a = n
        &&
        let seen = Array.make n false in
        Array.for_all
          (fun x ->
            x >= 0 && x < n && not seen.(x) && (seen.(x) <- true; true))
          a
      in
      is_perm (Ordering.reverse_topological net)
      && is_perm (Ordering.topological net)
      && is_perm (Ordering.declaration net)
      && is_perm (Ordering.disturbed net)
      && is_perm (Ordering.shuffled (Dpa_util.Rng.create 1) net))

let test_fig10_counts () =
  let net = Dpa_workload.Examples.fig10 () in
  let shared order = Build.shared_output_size net (Build.of_netlist ~order net) in
  Alcotest.(check int) "reverse topological = 7" 7 (shared (Ordering.reverse_topological net));
  Alcotest.(check int) "topological = 11" 11 (shared (Ordering.topological net));
  Alcotest.(check int) "disturbed = 8" 8 (shared (Ordering.disturbed net))

let test_fig10_orders () =
  let net = Dpa_workload.Examples.fig10 () in
  (* paper: x5,x4,x3,x2,x1 top-to-bottom; positions are 0-based *)
  Alcotest.(check (array int)) "reverse topo order" [| 4; 3; 2; 1; 0 |]
    (Ordering.reverse_topological net);
  Alcotest.(check (array int)) "topological order" [| 0; 1; 2; 3; 4 |]
    (Ordering.topological net);
  (* paper: x5,x1,x4,x3,x2 *)
  Alcotest.(check (array int)) "disturbed order" [| 4; 0; 3; 2; 1 |]
    (Ordering.disturbed net)

let test_shared_all_size () =
  let net = Dpa_workload.Examples.fig10 () in
  let b = Build.of_netlist ~order:(Ordering.reverse_topological net) net in
  (* all three outputs are the only gates, so both metrics agree *)
  Alcotest.(check int) "all-gates sharing" (Build.shared_output_size net b)
    (Build.shared_all_size net b)

let test_total_nodes_monotone () =
  let m = Robdd.create ~nvars:4 in
  let before = Robdd.total_nodes m in
  ignore (Robdd.apply_and m (Robdd.var m 0) (Robdd.var m 1));
  Alcotest.(check bool) "nodes grow" true (Robdd.total_nodes m > before)

let test_support () =
  let m = Robdd.create ~nvars:4 in
  let f = Robdd.apply_and m (Robdd.var m 0) (Robdd.var m 3) in
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Robdd.support m f);
  Alcotest.(check (list int)) "terminal support" [] (Robdd.support m Robdd.bdd_true);
  (* (a ∧ b) ∨ (a ∧ ¬b) = a: b leaves the support *)
  let a = Robdd.var m 0 and b = Robdd.var m 1 in
  let g = Robdd.apply_or m (Robdd.apply_and m a b) (Robdd.apply_and m a (Robdd.neg m b)) in
  Alcotest.(check (list int)) "reduced support" [ 0 ] (Robdd.support m g)

let test_to_dot () =
  let m = Robdd.create ~nvars:2 in
  let f = Robdd.apply_and m (Robdd.var m 0) (Robdd.var m 1) in
  let dot = Robdd.to_dot m [ ("f", f) ] in
  Alcotest.(check bool) "digraph" true (Testkit.contains_substring dot "digraph robdd");
  Alcotest.(check bool) "has root label" true (Testkit.contains_substring dot "r_f");
  Alcotest.(check bool) "has dashed edge" true (Testkit.contains_substring dot "dashed")

module Isop = Dpa_bdd.Isop

let test_isop_basics () =
  let m = Robdd.create ~nvars:3 in
  let a = Robdd.var m 0 and b = Robdd.var m 1 in
  (* constants *)
  Alcotest.(check int) "false = empty cover" 0 (List.length (Isop.of_node m Robdd.bdd_false));
  (match Isop.of_node m Robdd.bdd_true with
  | [ [] ] -> ()
  | _ -> Alcotest.fail "true = single tautology cube");
  (* a ∧ b: one cube, two literals *)
  let cover = Isop.of_node m (Robdd.apply_and m a b) in
  Alcotest.(check int) "one cube" 1 (List.length cover);
  Alcotest.(check int) "two literals" 2 (Isop.literal_count cover);
  (* a ∨ b: two cubes, irredundant means 2 literals total *)
  let cover = Isop.of_node m (Robdd.apply_or m a b) in
  Alcotest.(check int) "two cubes" 2 (List.length cover);
  Alcotest.(check int) "two literals total" 2 (Isop.literal_count cover)

let test_isop_exactness_xor () =
  let m = Robdd.create ~nvars:3 in
  let a = Robdd.var m 0 and b = Robdd.var m 1 and c = Robdd.var m 2 in
  let f = Robdd.apply_xor m (Robdd.apply_xor m a b) c in
  let cover = Isop.of_node m f in
  (* parity of 3 needs exactly 4 minterm cubes *)
  Alcotest.(check int) "4 cubes" 4 (List.length cover);
  Alcotest.(check int) "12 literals" 12 (Isop.literal_count cover);
  Alcotest.(check int) "cover equals f" f (Isop.cover_to_bdd m cover)

let test_isop_interval () =
  let m = Robdd.create ~nvars:2 in
  let a = Robdd.var m 0 and b = Robdd.var m 1 in
  (* lower = a∧b, upper = a: the single-literal cube "a" fits the interval *)
  let cover = Isop.of_interval m ~lower:(Robdd.apply_and m a b) ~upper:a in
  Alcotest.(check int) "one cube" 1 (List.length cover);
  Alcotest.(check int) "one literal" 1 (Isop.literal_count cover);
  Alcotest.check_raises "empty interval rejected"
    (Invalid_argument "Isop.of_interval: lower is not contained in upper") (fun () ->
      ignore (Isop.of_interval m ~lower:a ~upper:(Robdd.apply_and m a b)))

(* property: the ISOP cover computes exactly the function, and is
   irredundant (dropping any cube loses coverage) *)
let prop_isop_exact_and_irredundant =
  Testkit.qcheck_case ~count:60 ~name:"isop exact and cube-irredundant"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let built = Build.of_netlist net in
      let m = Build.manager built in
      Array.for_all
        (fun (_, d) ->
          let f = (Build.roots built).(d) in
          let cover = Isop.of_node m f in
          Isop.cover_to_bdd m cover = f
          && List.for_all
               (fun cube ->
                 let rest = List.filter (fun c -> c != cube) cover in
                 Isop.cover_to_bdd m rest <> f)
               cover)
        (Netlist.outputs net))

module Equiv = Dpa_bdd.Equiv

let test_equiv_optimize_pairs () =
  let net = Dpa_workload.Examples.fig5 () in
  let opt = Dpa_synth.Opt.optimize net in
  (match Equiv.check net opt with
  | Equiv.Equivalent -> ()
  | Equiv.Differ _ | Equiv.Interface_mismatch _ -> Alcotest.fail "optimize broke fig5");
  Equiv.check_exn net opt

let test_equiv_detects_difference () =
  let make flip =
    let t = Netlist.create () in
    let a = Netlist.add_input t in
    let b = Netlist.add_input t in
    let g =
      if flip then Netlist.add_gate t (Dpa_logic.Gate.Or [| a; b |])
      else Netlist.add_gate t (Dpa_logic.Gate.And [| a; b |])
    in
    Netlist.add_output t "f" g;
    t
  in
  match Equiv.check (make false) (make true) with
  | Equiv.Differ { output; witness } ->
    Alcotest.(check int) "output 0" 0 output;
    (* the witness must actually distinguish AND from OR *)
    let v = witness in
    Alcotest.(check bool) "valid witness" true ((v.(0) && v.(1)) <> (v.(0) || v.(1)))
  | Equiv.Equivalent -> Alcotest.fail "missed the difference"
  | Equiv.Interface_mismatch m -> Alcotest.failf "unexpected mismatch: %s" m

let test_equiv_interface_mismatch () =
  let one = Netlist.create () in
  let a = Netlist.add_input one in
  Netlist.add_output one "f" a;
  let two = Netlist.create () in
  let x = Netlist.add_input two in
  let _y = Netlist.add_input two in
  Netlist.add_output two "f" x;
  match Equiv.check one two with
  | Equiv.Interface_mismatch _ -> ()
  | Equiv.Equivalent | Equiv.Differ _ -> Alcotest.fail "expected interface mismatch"

(* property: equivalence verdicts agree with truth tables, and witnesses
   are genuine *)
let prop_equiv_sound =
  Testkit.qcheck_case ~count:60 ~name:"equiv checker sound"
    QCheck2.Gen.(pair (Testkit.arbitrary_netlist ()) (Testkit.arbitrary_netlist ()))
    (fun (a, b) ->
      let na = Netlist.num_inputs a in
      if Netlist.num_inputs b <> na || Netlist.num_outputs b <> Netlist.num_outputs a
      then
        match Equiv.check a b with
        | Equiv.Interface_mismatch _ -> true
        | Equiv.Equivalent | Equiv.Differ _ -> false
      else begin
        let truth_equal =
          Testkit.same_function na
            (fun v -> Array.to_list (Eval.outputs a v))
            (fun v -> Array.to_list (Eval.outputs b v))
        in
        match Equiv.check a b with
        | Equiv.Equivalent -> truth_equal
        | Equiv.Differ { output; witness } ->
          (not truth_equal)
          && (Eval.outputs a witness).(output) <> (Eval.outputs b witness).(output)
        | Equiv.Interface_mismatch _ -> false
      end)

let test_best_order () =
  let net = Dpa_workload.Examples.fig10 () in
  let name, _, nodes =
    Build.best_order net
      [ ("reverse", Ordering.reverse_topological net);
        ("topo", Ordering.topological net);
        ("disturbed", Ordering.disturbed net) ]
  in
  Alcotest.(check string) "reverse wins" "reverse" name;
  Alcotest.(check int) "with 7 nodes" 7 nodes;
  Alcotest.check_raises "empty candidates"
    (Invalid_argument "Build.best_order: no candidate orders") (fun () ->
      ignore (Build.best_order net []))

let test_reorder_refines_bad_order () =
  let net = Dpa_workload.Examples.fig10 () in
  let bad = Ordering.topological net in
  let r = Dpa_bdd.Reorder.refine net bad in
  Alcotest.(check int) "initial is 11" 11 r.Dpa_bdd.Reorder.initial_nodes;
  Alcotest.(check bool) "improves" true (r.Dpa_bdd.Reorder.nodes < 11);
  Alcotest.(check bool) "accepted swaps" true (r.Dpa_bdd.Reorder.swaps_accepted > 0);
  (* the refined order must actually produce the reported count *)
  let check = Build.shared_all_size net (Build.of_netlist ~order:r.Dpa_bdd.Reorder.order net) in
  Alcotest.(check int) "order consistent" r.Dpa_bdd.Reorder.nodes check;
  (* exactly one oracle call per candidate swap, plus the start-order probe *)
  let n = Netlist.num_inputs net in
  Alcotest.(check int) "oracle call accounting"
    (1 + (r.Dpa_bdd.Reorder.passes * (n - 1)))
    r.Dpa_bdd.Reorder.oracle_calls

let test_reorder_fixed_point () =
  (* a refined order is a local optimum: refining it again stops after
     one pass without a swap, having rebuilt the start order and each
     adjacent swap once *)
  let net = Dpa_workload.Examples.fig10 () in
  let r = Dpa_bdd.Reorder.refine net (Ordering.topological net) in
  let again = Dpa_bdd.Reorder.refine net r.Dpa_bdd.Reorder.order in
  Alcotest.(check (array int)) "same order" r.Dpa_bdd.Reorder.order again.Dpa_bdd.Reorder.order;
  Alcotest.(check int) "same nodes" r.Dpa_bdd.Reorder.nodes again.Dpa_bdd.Reorder.nodes;
  Alcotest.(check int) "start cost" r.Dpa_bdd.Reorder.nodes again.Dpa_bdd.Reorder.initial_nodes;
  Alcotest.(check int) "no swaps" 0 again.Dpa_bdd.Reorder.swaps_accepted;
  Alcotest.(check int) "one pass" 1 again.Dpa_bdd.Reorder.passes;
  Alcotest.(check int) "rebuilds" (Netlist.num_inputs net) again.Dpa_bdd.Reorder.oracle_calls

(* property: refinement never makes the order worse and keeps a permutation *)
let prop_reorder_never_worse =
  Testkit.qcheck_case ~count:40 ~name:"reorder never worse"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let seed = Ordering.declaration net in
      let r = Dpa_bdd.Reorder.refine ~max_passes:3 net seed in
      let sorted = Array.copy r.Dpa_bdd.Reorder.order in
      Array.sort compare sorted;
      r.Dpa_bdd.Reorder.nodes <= r.Dpa_bdd.Reorder.initial_nodes
      && sorted = Array.init (Netlist.num_inputs net) Fun.id)

let suite =
  [ Alcotest.test_case "terminals" `Quick test_terminals;
    Alcotest.test_case "reorder refines" `Quick test_reorder_refines_bad_order;
    Alcotest.test_case "reorder fixed point" `Quick test_reorder_fixed_point;
    prop_reorder_never_worse;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "to_dot" `Quick test_to_dot;
    Alcotest.test_case "equiv optimize" `Quick test_equiv_optimize_pairs;
    Alcotest.test_case "equiv difference" `Quick test_equiv_detects_difference;
    Alcotest.test_case "equiv interface" `Quick test_equiv_interface_mismatch;
    prop_equiv_sound;
    Alcotest.test_case "best order" `Quick test_best_order;
    Alcotest.test_case "isop basics" `Quick test_isop_basics;
    Alcotest.test_case "isop parity" `Quick test_isop_exactness_xor;
    Alcotest.test_case "isop interval" `Quick test_isop_interval;
    prop_isop_exact_and_irredundant;
    Alcotest.test_case "var and eval" `Quick test_var_and_eval;
    Alcotest.test_case "canonicity" `Quick test_canonicity;
    Alcotest.test_case "xor and size" `Quick test_xor_and_size;
    Alcotest.test_case "probability basics" `Quick test_probability_basic;
    Alcotest.test_case "var bounds" `Quick test_var_bounds;
    Alcotest.test_case "fig10 node counts" `Quick test_fig10_counts;
    Alcotest.test_case "fig10 orders" `Quick test_fig10_orders;
    Alcotest.test_case "shared all size" `Quick test_shared_all_size;
    Alcotest.test_case "total nodes monotone" `Quick test_total_nodes_monotone;
    prop_bdd_equals_eval;
    prop_probability_exact;
    prop_probability_exact_wide;
    prop_prob_cache_consistent;
    Alcotest.test_case "kernel stats counters" `Quick test_stats_counters;
    prop_cache_capacity_invariance;
    Alcotest.test_case "computed table size, circuits" `Quick
      test_cache_capacity_invariance_circuits;
    Alcotest.test_case "kernel allocation" `Quick test_kernel_allocation;
    prop_orderings_are_permutations;
    prop_build_leaf_and_cones ]
