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
    prop_min_area_local_minimum ]
