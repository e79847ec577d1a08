module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Eval = Dpa_logic.Eval
module Opt = Dpa_synth.Opt
module Phase = Dpa_synth.Phase
module Inverterless = Dpa_synth.Inverterless
module Min_area = Dpa_synth.Min_area

let test_phase_helpers () =
  let a = Phase.all_positive 3 in
  Alcotest.(check string) "all positive" "+++" (Phase.to_string a);
  let b = Phase.flip_at a 1 in
  Alcotest.(check string) "flip" "+-+" (Phase.to_string b);
  Alcotest.(check int) "count" 1 (Phase.count_negative b);
  Alcotest.(check int) "roundtrip" 2 (Phase.to_int b);
  Alcotest.(check string) "of_int" "+-+" (Phase.to_string (Phase.of_int ~num_outputs:3 2));
  Alcotest.(check int) "enumerate" 8 (List.length (List.of_seq (Phase.enumerate ~num_outputs:3)));
  Alcotest.(check bool) "flip involutive" true (Phase.equal a (Phase.flip_at b 1))

let test_phase_enumerate_limit () =
  Alcotest.check_raises "limit"
    (Invalid_argument "Phase.enumerate: more than 24 outputs is not enumerable") (fun () ->
      let (_ : Phase.assignment Seq.t) = Phase.enumerate ~num_outputs:25 in
      ())

let test_phase_of_string () =
  let parse n s = Phase.of_string ~num_outputs:n s in
  Seq.iter
    (fun a ->
      match parse 4 (Phase.to_string a) with
      | Ok a' -> Alcotest.(check bool) (Phase.to_string a ^ " round trip") true (Phase.equal a a')
      | Error msg -> Alcotest.fail msg)
    (Phase.enumerate ~num_outputs:4);
  Alcotest.(check (result string string))
    "wrong length" (Error "phase string \"+-\" has 2 characters for 3 outputs")
    (Result.map Phase.to_string (parse 3 "+-"));
  Alcotest.(check (result string string))
    "bad character" (Error "phase string may contain only '+' and '-'")
    (Result.map Phase.to_string (parse 3 "+x-"));
  Alcotest.(check (result string string))
    "zero outputs" (Ok "") (Result.map Phase.to_string (parse 0 ""))

let test_optimize_removes_double_inverters () =
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  let n1 = Netlist.add_gate t (Gate.Not a) in
  let n2 = Netlist.add_gate t (Gate.Not n1) in
  let n3 = Netlist.add_gate t (Gate.Not n2) in
  Netlist.add_output t "f" n3;
  let o = Opt.optimize t in
  (* ¬¬¬a = ¬a: one inverter *)
  Alcotest.(check int) "one gate" 1 (Netlist.gate_count o)

let test_optimize_decomposes_xor () =
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let x = Netlist.add_gate t (Gate.Xor (a, b)) in
  Netlist.add_output t "f" x;
  Alcotest.(check bool) "raw not ready" false (Opt.is_domino_ready t);
  let o = Opt.optimize t in
  Alcotest.(check bool) "decomposed ready" true (Opt.is_domino_ready o);
  let same =
    Testkit.same_function 2
      (fun v -> Array.to_list (Eval.outputs t v))
      (fun v -> Array.to_list (Eval.outputs o v))
  in
  Alcotest.(check bool) "function preserved" true same

let test_optimize_preserves_interface () =
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  let _unused = Netlist.add_input ~name:"unused" t in
  Netlist.add_output t "f" a;
  let o = Opt.optimize t in
  Alcotest.(check int) "inputs kept" 2 (Netlist.num_inputs o);
  Alcotest.(check (option string)) "name kept" (Some "unused")
    (Netlist.node_name o (Netlist.inputs o).(1))

(* property: optimize preserves functionality *)
let prop_optimize_preserves =
  Testkit.qcheck_case ~count:120 ~name:"optimize preserves function"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let o = Opt.optimize net in
      Testkit.same_function (Netlist.num_inputs net)
        (fun v -> Array.to_list (Eval.outputs net v))
        (fun v -> Array.to_list (Eval.outputs o v)))

(* property: optimize never grows XOR-free networks *)
let prop_optimize_shrinks =
  Testkit.qcheck_case ~count:120 ~name:"optimize never grows xor-free nets"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let has_xor = ref false in
      Netlist.iter_nodes
        (fun _ g ->
          match g with
          | Gate.Xor _ -> has_xor := true
          | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _ | Gate.Or _ -> ())
        net;
      (* xor decomposition may add gates by design *)
      !has_xor || Netlist.gate_count (Opt.optimize net) <= Netlist.gate_count net)

let fig5_opt () = Opt.optimize (Dpa_workload.Examples.fig5 ())

let test_inverterless_block_is_monotone () =
  let net = fig5_opt () in
  Seq.iter
    (fun assignment ->
      let inv = Inverterless.realize net assignment in
      let blk = Inverterless.block inv in
      Netlist.iter_nodes
        (fun _ g ->
          match g with
          | Gate.Not _ | Gate.Buf _ | Gate.Xor _ ->
            Alcotest.failf "non-monotone gate in block for %s" (Phase.to_string assignment)
          | Gate.Input | Gate.Const _ | Gate.And _ | Gate.Or _ -> ())
        blk)
    (Phase.enumerate ~num_outputs:2)

let test_inverterless_fig5_stats () =
  let net = fig5_opt () in
  (* realization 1: f negative, g positive — 4 shared gates, no input
     inverters, one output inverter (paper Fig. 5 left) *)
  let s1 = Inverterless.stats (Inverterless.realize net [| Phase.Negative; Phase.Positive |]) in
  Alcotest.(check int) "r1 gates" 4 s1.Inverterless.domino_gates;
  Alcotest.(check int) "r1 in-inv" 0 s1.Inverterless.input_inverters;
  Alcotest.(check int) "r1 out-inv" 1 s1.Inverterless.output_inverters;
  Alcotest.(check int) "r1 dup" 0 s1.Inverterless.duplicated_nodes;
  (* realization 2: f positive, g negative — 4 dual gates, 4 input
     inverters, one output inverter (paper Fig. 5 right) *)
  let s2 = Inverterless.stats (Inverterless.realize net [| Phase.Positive; Phase.Negative |]) in
  Alcotest.(check int) "r2 gates" 4 s2.Inverterless.domino_gates;
  Alcotest.(check int) "r2 in-inv" 4 s2.Inverterless.input_inverters;
  Alcotest.(check int) "r2 out-inv" 1 s2.Inverterless.output_inverters

let test_inverterless_duplication () =
  (* f = a∧b shared with g = ¬(a∧b): opposite demands trap the AND *)
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  let b = Netlist.add_input ~name:"b" t in
  let ab = Netlist.add_gate t (Gate.And [| a; b |]) in
  let nab = Netlist.add_gate t (Gate.Not ab) in
  Netlist.add_output t "f" ab;
  Netlist.add_output t "g" nab;
  let s = Inverterless.stats (Inverterless.realize t [| Phase.Positive; Phase.Positive |]) in
  (* f wants (ab, Pos); g positive wants ¬(ab) = (ab, Neg): both polarities *)
  Alcotest.(check int) "duplicated" 1 s.Inverterless.duplicated_nodes;
  Alcotest.(check int) "two gates" 2 s.Inverterless.domino_gates;
  (* with g negative, the block computes ab for both outputs: no dup *)
  let s' = Inverterless.stats (Inverterless.realize t [| Phase.Positive; Phase.Negative |]) in
  Alcotest.(check int) "no dup" 0 s'.Inverterless.duplicated_nodes;
  Alcotest.(check int) "one gate" 1 s'.Inverterless.domino_gates

let test_inverterless_literals () =
  let net = fig5_opt () in
  let inv = Inverterless.realize net [| Phase.Positive; Phase.Negative |] in
  let lits = Inverterless.literals inv in
  (* realization 2 uses only complemented literals *)
  Alcotest.(check bool) "all negative" true
    (Array.for_all (fun (_, pol) -> pol = Inverterless.Neg) lits);
  Alcotest.(check bool) "literal lookup" true
    (Inverterless.block_literal inv ~pi_position:0 Inverterless.Neg <> None);
  Alcotest.(check (option int)) "absent literal" None
    (Inverterless.block_literal inv ~pi_position:0 Inverterless.Pos)

let test_inverterless_origin_tracking () =
  let net = fig5_opt () in
  let inv = Inverterless.realize net (Phase.all_positive 2) in
  let blk = Inverterless.block inv in
  let tracked = ref 0 in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.And _ | Gate.Or _ ->
        (match Inverterless.original_of_block_node inv i with
        | Some (_, _) -> incr tracked
        | None -> Alcotest.fail "untracked block gate")
      | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ -> ())
    blk;
  Alcotest.(check bool) "gates tracked" true (!tracked > 0)

(* property: the inverterless realization computes the original outputs
   under every phase assignment (for up to 3 outputs, all assignments) *)
let prop_inverterless_equivalent =
  Testkit.qcheck_case ~count:100 ~name:"inverterless preserves function for all phases"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net = Opt.optimize net in
      let n_po = Netlist.num_outputs net in
      Seq.for_all
        (fun assignment ->
          let inv = Inverterless.realize net assignment in
          Testkit.same_function (Netlist.num_inputs net)
            (fun v -> Array.to_list (Eval.outputs net v))
            (fun v -> Array.to_list (Inverterless.eval_original_outputs inv v)))
        (Phase.enumerate ~num_outputs:n_po))

(* property: flipping every phase costs at most the boundary inverters of
   a fully dual realization — area is assignment-dependent but bounded *)
let prop_inverterless_area_positive =
  Testkit.qcheck_case ~count:100 ~name:"inverterless area sane"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net = Opt.optimize net in
      let a = Phase.all_positive (Netlist.num_outputs net) in
      let s = Inverterless.stats (Inverterless.realize net a) in
      s.Inverterless.area
      = s.Inverterless.domino_gates + s.Inverterless.input_inverters
        + s.Inverterless.output_inverters
      && s.Inverterless.area >= 0)

let test_resynth_two_level () =
  let net = fig5_opt () in
  let net', stats = Dpa_synth.Resynth.two_level net in
  Alcotest.(check int) "both outputs collapsed" 2 stats.Dpa_synth.Resynth.collapsed_outputs;
  Alcotest.(check int) "none kept" 0 stats.Dpa_synth.Resynth.kept_outputs;
  Alcotest.(check bool) "domino ready" true (Opt.is_domino_ready net');
  let same =
    Testkit.same_function 4
      (fun v -> Array.to_list (Eval.outputs net v))
      (fun v -> Array.to_list (Eval.outputs net' v))
  in
  Alcotest.(check bool) "function preserved" true same;
  (* the result is two-level: depth at most 3 (inverter, AND, OR) *)
  Alcotest.(check bool) "flattened" true (Dpa_logic.Topo.max_level net' <= 3)

let test_resynth_respects_support_limit () =
  let t = Netlist.create () in
  let xs = Array.init 6 (fun _ -> Netlist.add_input t) in
  let wide = Netlist.add_gate t (Gate.And xs) in
  let narrow = Netlist.add_gate t (Gate.Or [| xs.(0); xs.(1) |]) in
  Netlist.add_output t "wide" wide;
  Netlist.add_output t "narrow" narrow;
  let _, stats = Dpa_synth.Resynth.two_level ~max_support:3 t in
  Alcotest.(check int) "one collapsed" 1 stats.Dpa_synth.Resynth.collapsed_outputs;
  Alcotest.(check int) "one kept" 1 stats.Dpa_synth.Resynth.kept_outputs

(* property: two-level resynthesis preserves functionality *)
let prop_resynth_preserves =
  Testkit.qcheck_case ~count:80 ~name:"resynthesis preserves function"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net', _ = Dpa_synth.Resynth.two_level net in
      Testkit.same_function (Netlist.num_inputs net)
        (fun v -> Array.to_list (Eval.outputs net v))
        (fun v -> Array.to_list (Eval.outputs net' v)))

module Factor = Dpa_synth.Factor

let lit input positive = { Factor.input; positive }

let test_factor_basics () =
  Alcotest.(check int) "empty = const false" 0
    (Factor.literal_count (Factor.factor []));
  (match Factor.factor [] with
  | Factor.Const false -> ()
  | _ -> Alcotest.fail "empty cover is false");
  (match Factor.factor [ [] ] with
  | Factor.Const true -> ()
  | _ -> Alcotest.fail "tautology cube is true");
  (match Factor.factor [ [ lit 0 true ] ] with
  | Factor.Lit { Factor.input = 0; positive = true } -> ()
  | _ -> Alcotest.fail "single literal")

let test_factor_extracts_sharing () =
  (* ab + ac + ad = a(b + c + d): 6 literals flat, 4 factored *)
  let cover = [ [ lit 0 true; lit 1 true ]; [ lit 0 true; lit 2 true ];
                [ lit 0 true; lit 3 true ] ] in
  let form = Factor.factor cover in
  Alcotest.(check int) "flat literals" 6 (Factor.sop_literal_count cover);
  Alcotest.(check int) "factored literals" 4 (Factor.literal_count form);
  (* semantics preserved over all 16 assignments *)
  for m = 0 to 15 do
    let lookup i = (m lsr i) land 1 = 1 in
    let sop_value =
      List.exists
        (fun cube ->
          List.for_all
            (fun { Factor.input; positive } -> lookup input = positive)
            cube)
        cover
    in
    Alcotest.(check bool) "same value" sop_value (Factor.eval form lookup)
  done

let test_factor_common_cube_divisor () =
  (* abc + abd = ab(c + d): 6 flat, 4 factored — needs the common-cube
     extension, not just the single literal *)
  let cover = [ [ lit 0 true; lit 1 true; lit 2 true ];
                [ lit 0 true; lit 1 true; lit 3 true ] ] in
  let form = Factor.factor cover in
  Alcotest.(check int) "factored literals" 4 (Factor.literal_count form)

(* property: factoring preserves the ISOP function and never increases
   literals, through the whole resynthesis pipeline *)
let prop_factored_resynth_preserves =
  Testkit.qcheck_case ~count:80 ~name:"factored resynthesis preserves function"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net', _ = Dpa_synth.Resynth.factored net in
      Testkit.same_function (Netlist.num_inputs net)
        (fun v -> Array.to_list (Eval.outputs net v))
        (fun v -> Array.to_list (Eval.outputs net' v)))

let prop_factoring_never_more_literals =
  Testkit.qcheck_case ~count:80 ~name:"factoring never adds literals"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let _, flat = Dpa_synth.Resynth.two_level net in
      let _, fact = Dpa_synth.Resynth.factored net in
      fact.Dpa_synth.Resynth.literals <= flat.Dpa_synth.Resynth.literals)

let test_min_area_exhaustive_optimal () =
  let net = fig5_opt () in
  let best = Min_area.exhaustive net in
  let best_area = Min_area.area_of net best in
  Seq.iter
    (fun a ->
      Alcotest.(check bool) "no better assignment" true (Min_area.area_of net a >= best_area))
    (Phase.enumerate ~num_outputs:2)

let test_min_area_local_search_no_worse_than_start () =
  let net = fig5_opt () in
  let start = Phase.all_positive 2 in
  let final = Min_area.local_search ~start net in
  Alcotest.(check bool) "local search improves or stays" true
    (Min_area.area_of net final <= Min_area.area_of net start)

(* property: local search result is a local minimum under single flips *)
let prop_min_area_local_minimum =
  Testkit.qcheck_case ~count:40 ~name:"min-area local search reaches a local minimum"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net = Opt.optimize net in
      let a = Min_area.local_search net in
      let area = Min_area.area_of net a in
      let n = Netlist.num_outputs net in
      let rec ok k =
        k >= n || (Min_area.area_of net (Phase.flip_at a k) >= area && ok (k + 1))
      in
      ok 0)

(* ---- min-area closure index vs realize-per-candidate ---------------- *)

(* The searches as they were before the closure index: realize every
   candidate and read its area. *)
let exhaustive_reference t =
  let n = Netlist.num_outputs t in
  let best = ref (Phase.all_positive n) in
  let best_area = ref (Min_area.area_of t !best) in
  Seq.iter
    (fun a ->
      let area = Min_area.area_of t a in
      if area < !best_area then begin
        best := a;
        best_area := area
      end)
    (Phase.enumerate ~num_outputs:n);
  !best

let local_search_reference ?start t =
  let n = Netlist.num_outputs t in
  let current = ref (match start with Some a -> Array.copy a | None -> Phase.all_positive n) in
  let current_area = ref (Min_area.area_of t !current) in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_k = ref (-1) and best_area = ref !current_area in
    for k = 0 to n - 1 do
      let area = Min_area.area_of t (Phase.flip_at !current k) in
      if area < !best_area then begin
        best_area := area;
        best_k := k
      end
    done;
    if !best_k >= 0 then begin
      current := Phase.flip_at !current !best_k;
      current_area := !best_area;
      improved := true
    end
  done;
  !current

let prop_min_area_index_is_area =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~print:Testkit.print_wide_case
       ~name:"min-area index area = realized area" Testkit.gen_wide_netlist (fun (net, seed) ->
         let n = Netlist.num_outputs net in
         let every =
           Seq.for_all
             (fun a -> Min_area.area (Min_area.index net a) = Min_area.area_of net a)
             (Phase.enumerate ~num_outputs:n)
         in
         (* a walk of single flips from a random start keeps the counts *)
         let rng = Dpa_util.Rng.create seed in
         let a = Phase.random rng ~num_outputs:n in
         let ix = Min_area.index net a in
         let walk =
           List.for_all
             (fun _ ->
               let k = Dpa_util.Rng.int rng n in
               Min_area.flip ix k;
               a.(k) <- Phase.flip a.(k);
               Min_area.area ix = Min_area.area_of net a)
             (List.init 40 Fun.id)
         in
         every && walk))

let prop_min_area_searches_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~print:Testkit.print_wide_case
       ~name:"min-area searches = realize-per-candidate searches" Testkit.gen_wide_netlist
       (fun (net, seed) ->
         let n = Netlist.num_outputs net in
         let start = Phase.random (Dpa_util.Rng.create seed) ~num_outputs:n in
         Phase.equal (Min_area.exhaustive net) (exhaustive_reference net)
         && Phase.equal (Min_area.local_search net) (local_search_reference net)
         && Phase.equal (Min_area.local_search ~start net) (local_search_reference ~start net)))

let test_min_area_exhaustive_limit () =
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  for k = 0 to 24 do
    Netlist.add_output t (Printf.sprintf "o%d" k) a
  done;
  match Min_area.exhaustive t with
  | _ -> Alcotest.fail "25 outputs enumerated"
  | exception Invalid_argument _ -> ()

let test_min_area_start_length () =
  let net = fig5_opt () in
  match Min_area.local_search ~start:(Phase.all_positive 3) net with
  | _ -> Alcotest.fail "a 3-phase start accepted for 2 outputs"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (msg ^ " names Min_area.local_search")
      true
      (Testkit.contains_substring msg "Min_area.local_search")

(* Two outputs share the complement of a 3-input AND: all positive costs
   one OR gate and three input inverters (4), flipping one output adds
   the AND and an output inverter (6), flipping both leaves the AND and
   two output inverters (3). Nine more outputs are single ANDs that only
   grow when flipped. Local search from all positive is stuck at 13;
   exhaustive search finds 12. *)
let local_minimum_net () =
  let t = Netlist.create () in
  let inputs () = Array.init 3 (fun _ -> Netlist.add_input t) in
  let g = Netlist.add_gate t (Gate.Not (Netlist.add_gate t (Gate.And (inputs ())))) in
  Netlist.add_output t "o0" g;
  Netlist.add_output t "o1" g;
  for k = 2 to 10 do
    Netlist.add_output t (Printf.sprintf "o%d" k) (Netlist.add_gate t (Gate.And (inputs ())))
  done;
  t

let test_min_area_best_default () =
  let net = local_minimum_net () in
  let exhaustive = Min_area.exhaustive net and local = Min_area.local_search net in
  Alcotest.(check string) "exhaustive" "--+++++++++" (Phase.to_string exhaustive);
  Alcotest.(check int) "exhaustive area" 12 (Min_area.area_of net exhaustive);
  Alcotest.(check string) "local search" "+++++++++++" (Phase.to_string local);
  (* 11 outputs exceed the default threshold of 10, Flow's and the
     optimizer's *)
  Alcotest.(check string) "best" (Phase.to_string local) (Phase.to_string (Min_area.best net));
  Alcotest.(check string)
    "best at limit 11" (Phase.to_string exhaustive)
    (Phase.to_string (Min_area.best ~exhaustive_limit:11 net))

(* ---- realization identity against the hash-table realizer ----------- *)

type reference = {
  blk : Netlist.t;
  literal_ids : (int * Inverterless.polarity, int) Hashtbl.t;
  origin : (int, int * Inverterless.polarity) Hashtbl.t;
  literal_info : (int * Inverterless.polarity) array;
  duplicated : int;
}

(* Inverterless.realize before its array memo: memoized on
   (node, polarity) in a hash table, with a per-gate origin table. *)
let realize_reference original assignment =
  let open Inverterless in
  let flip_pol = function Pos -> Neg | Neg -> Pos in
  let outs = Netlist.outputs original in
  let blk = Netlist.create ~name:(Netlist.name original ^ "_domino") () in
  let literal_ids = Hashtbl.create 32 in
  let origin = Hashtbl.create 64 in
  let literal_info = ref [] in
  let pi_position = Hashtbl.create 32 in
  Array.iteri (fun pos id -> Hashtbl.replace pi_position id pos) (Netlist.inputs original);
  let memo : (int * polarity, int) Hashtbl.t = Hashtbl.create 64 in
  let rec build i pol =
    match Hashtbl.find_opt memo (i, pol) with
    | Some id -> id
    | None ->
      let id =
        match Netlist.gate original i with
        | Gate.Input ->
          let pos = Hashtbl.find pi_position i in
          let key = (pos, pol) in
          (match Hashtbl.find_opt literal_ids key with
          | Some id -> id
          | None ->
            let base =
              match Netlist.node_name original i with
              | Some n -> n
              | None -> Printf.sprintf "x%d" pos
            in
            let name = match pol with Pos -> base | Neg -> "~" ^ base in
            let id = Netlist.add_input ~name blk in
            Hashtbl.replace literal_ids key id;
            literal_info := key :: !literal_info;
            id)
        | Gate.Const b ->
          let v = match pol with Pos -> b | Neg -> not b in
          Netlist.add_gate blk (Gate.Const v)
        | Gate.Buf x -> build x pol
        | Gate.Not x -> build x (flip_pol pol)
        | Gate.And xs ->
          let fis = Array.map (fun x -> build x pol) xs in
          Netlist.add_gate blk (match pol with Pos -> Gate.And fis | Neg -> Gate.Or fis)
        | Gate.Or xs ->
          let fis = Array.map (fun x -> build x pol) xs in
          Netlist.add_gate blk (match pol with Pos -> Gate.Or fis | Neg -> Gate.And fis)
        | Gate.Xor _ -> invalid_arg "realize_reference: XOR present"
      in
      Hashtbl.replace memo (i, pol) id;
      (match Netlist.gate original i with
      | Gate.And _ | Gate.Or _ | Gate.Const _ -> Hashtbl.replace origin id (i, pol)
      | Gate.Input | Gate.Buf _ | Gate.Not _ | Gate.Xor _ -> ());
      id
  in
  Array.iteri
    (fun k (po, driver) ->
      let pol = match assignment.(k) with Phase.Positive -> Pos | Phase.Negative -> Neg in
      Netlist.add_output blk po (build driver pol))
    outs;
  let duplicated =
    let seen = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (i, _) _ ->
        match Netlist.gate original i with
        | Gate.And _ | Gate.Or _ ->
          Hashtbl.replace seen i (1 + Option.value ~default:0 (Hashtbl.find_opt seen i))
        | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ -> ())
      memo;
    Hashtbl.fold (fun _ count acc -> if count > 1 then acc + 1 else acc) seen 0
  in
  { blk; literal_ids; origin; literal_info = Array.of_list (List.rev !literal_info); duplicated }

(* [None] when the realizations agree node for node, else what differs. *)
let realization_mismatch original assignment =
  let r = realize_reference original assignment in
  let inv = Inverterless.realize original assignment in
  let b = Inverterless.block inv in
  let size = Netlist.size r.blk in
  let differs = ref [] in
  let expect what ok = if not ok then differs := what :: !differs in
  expect "name" (Netlist.name r.blk = Netlist.name b);
  expect "size" (size = Netlist.size b);
  expect "inputs" (Netlist.inputs r.blk = Netlist.inputs b);
  expect "outputs" (Netlist.outputs r.blk = Netlist.outputs b);
  if size = Netlist.size b then
    for i = 0 to size - 1 do
      expect (Printf.sprintf "node %d" i)
        (Gate.equal (Netlist.gate r.blk i) (Netlist.gate b i)
        && Netlist.node_name r.blk i = Netlist.node_name b i)
    done;
  expect "literals" (r.literal_info = Inverterless.literals inv);
  let s = Inverterless.stats inv in
  let input_inverters =
    Array.fold_left
      (fun n (_, pol) -> if pol = Inverterless.Neg then n + 1 else n)
      0 r.literal_info
  in
  expect "stats"
    (s.Inverterless.domino_gates = Netlist.gate_count r.blk
    && s.Inverterless.input_inverters = input_inverters
    && s.Inverterless.output_inverters = Phase.count_negative assignment
    && s.Inverterless.duplicated_nodes = r.duplicated
    && s.Inverterless.area
       = Netlist.gate_count r.blk + input_inverters + Phase.count_negative assignment);
  List.iter
    (fun id ->
      expect
        (Printf.sprintf "origin of %d" id)
        (Hashtbl.find_opt r.origin id = Inverterless.original_of_block_node inv id))
    ([ -1; size; size + 7 ] @ List.init size Fun.id);
  List.iter
    (fun pos ->
      List.iter
        (fun pol ->
          expect
            (Printf.sprintf "literal %d" pos)
            (Hashtbl.find_opt r.literal_ids (pos, pol)
            = Inverterless.block_literal inv ~pi_position:pos pol))
        [ Inverterless.Pos; Inverterless.Neg ])
    (List.init (Netlist.num_inputs original + 2) (fun k -> k - 1));
  match !differs with
  | [] -> None
  | d -> Some (String.concat ", " (List.rev d))

let identity_assignments net seed =
  let n = Netlist.num_outputs net in
  [
    Phase.all_positive n;
    Array.make n Phase.Negative;
    Phase.random (Dpa_util.Rng.create seed) ~num_outputs:n;
  ]

let prop_realize_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~print:Testkit.print_wide_case
       ~name:"realize = hash-table reference, node for node" Testkit.gen_wide_netlist
       (fun (net, seed) ->
         List.for_all
           (fun a ->
             match realization_mismatch net a with
             | None -> true
             | Some d -> QCheck2.Test.fail_reportf "%s: %s" (Phase.to_string a) d)
           (identity_assignments net seed)))

let test_realize_matches_reference_on_data () =
  List.iter
    (fun path ->
      let net = Opt.optimize (Testkit.load_blif path) in
      List.iter
        (fun a ->
          match realization_mismatch net a with
          | None -> ()
          | Some d -> Alcotest.failf "%s at %s: %s" path (Phase.to_string a) d)
        (identity_assignments net 7))
    Testkit.data_files

let suite =
  [ Alcotest.test_case "phase helpers" `Quick test_phase_helpers;
    Alcotest.test_case "phase enumerate limit" `Quick test_phase_enumerate_limit;
    Alcotest.test_case "phase of_string" `Quick test_phase_of_string;
    Alcotest.test_case "optimize double inverters" `Quick test_optimize_removes_double_inverters;
    Alcotest.test_case "optimize xor decomposition" `Quick test_optimize_decomposes_xor;
    Alcotest.test_case "optimize keeps interface" `Quick test_optimize_preserves_interface;
    Alcotest.test_case "inverterless monotone" `Quick test_inverterless_block_is_monotone;
    Alcotest.test_case "inverterless fig5 stats" `Quick test_inverterless_fig5_stats;
    Alcotest.test_case "inverterless duplication" `Quick test_inverterless_duplication;
    Alcotest.test_case "inverterless literals" `Quick test_inverterless_literals;
    Alcotest.test_case "inverterless origins" `Quick test_inverterless_origin_tracking;
    Alcotest.test_case "factor basics" `Quick test_factor_basics;
    Alcotest.test_case "factor extracts sharing" `Quick test_factor_extracts_sharing;
    Alcotest.test_case "factor common cube" `Quick test_factor_common_cube_divisor;
    prop_factored_resynth_preserves;
    prop_factoring_never_more_literals;
    Alcotest.test_case "resynth two-level" `Quick test_resynth_two_level;
    Alcotest.test_case "resynth support limit" `Quick test_resynth_respects_support_limit;
    prop_resynth_preserves;
    Alcotest.test_case "min-area exhaustive optimal" `Quick test_min_area_exhaustive_optimal;
    Alcotest.test_case "min-area local search" `Quick test_min_area_local_search_no_worse_than_start;
    prop_optimize_preserves;
    prop_optimize_shrinks;
    prop_inverterless_equivalent;
    prop_inverterless_area_positive;
    prop_min_area_local_minimum;
    prop_min_area_index_is_area;
    prop_min_area_searches_match_reference;
    Alcotest.test_case "min-area exhaustive limit" `Quick test_min_area_exhaustive_limit;
    Alcotest.test_case "min-area start length" `Quick test_min_area_start_length;
    Alcotest.test_case "min-area best default" `Quick test_min_area_best_default;
    prop_realize_matches_reference;
    Alcotest.test_case "realize = reference on data" `Quick
      test_realize_matches_reference_on_data ]
