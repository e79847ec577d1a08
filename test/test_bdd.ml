module Robdd = Dpa_bdd.Robdd
module Ordering = Dpa_bdd.Ordering
module Build = Dpa_bdd.Build
module Netlist = Dpa_logic.Netlist
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
        let pos_of_level = b.Build.order in
        let level_of_pos = Array.make (Array.length pos_of_level) 0 in
        Array.iteri (fun lvl pos -> level_of_pos.(pos) <- lvl) pos_of_level;
        Testkit.same_function (Netlist.num_inputs net)
          (fun vec -> Array.to_list (Eval.outputs net vec))
          (fun vec ->
            let assignment = Array.make (Array.length vec) false in
            Array.iteri (fun pos v -> assignment.(level_of_pos.(pos)) <- v) vec;
            Array.to_list
              (Array.map
                 (fun (_, d) -> Robdd.eval b.Build.manager b.Build.roots.(d) assignment)
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
   with exhaustive truth-table enumeration to 1e-12, through both the
   fresh-memo and the shared-memo entry points *)
let prop_probability_exact_wide =
  Testkit.qcheck_case ~count:20 ~name:"bdd probabilities exact at 12 inputs"
    QCheck2.Gen.(
      pair (Testkit.arbitrary_netlist ~n_inputs:12 ~max_gates:20 ()) (Testkit.probs_gen 12))
    (fun (net, probs) ->
      let expected = Eval.exact_probabilities net probs in
      let b = Build.of_netlist net in
      let shared = Build.probabilities_of_built ~input_probs:probs b in
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
      let level_probs = Array.map (fun pos -> probs.(pos)) b.Build.order in
      let cache = Robdd.prob_cache b.Build.manager level_probs in
      let before =
        Array.map (Robdd.cached_probability cache) b.Build.roots
      in
      (* grow the manager after the cache was created *)
      let extra =
        Robdd.apply_xor b.Build.manager b.Build.roots.(0)
          (Robdd.neg b.Build.manager b.Build.roots.(Array.length b.Build.roots - 1))
      in
      let ok = ref (Testkit.approx ~eps:1e-12
                      (Robdd.probability b.Build.manager level_probs extra)
                      (Robdd.cached_probability cache extra)) in
      Array.iteri
        (fun i root ->
          if
            not
              (Testkit.approx ~eps:1e-12 before.(i)
                 (Robdd.probability b.Build.manager level_probs root))
          then ok := false)
        b.Build.roots;
      !ok)

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
      let m = built.Build.manager in
      Array.for_all
        (fun (_, d) ->
          let f = built.Build.roots.(d) in
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
    prop_orderings_are_permutations ]
