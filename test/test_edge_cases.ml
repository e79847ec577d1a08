(* Cross-cutting edge cases that don't belong to a single module's happy
   path: degenerate circuits, extreme probabilities, interface corners. *)

module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Phase = Dpa_synth.Phase
module Inverterless = Dpa_synth.Inverterless
module Mapped = Dpa_domino.Mapped

(* ---- degenerate circuits through the whole flow ---- *)

let test_po_driven_by_pi () =
  (* a wire from input to output: no domino gates at all *)
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  Netlist.add_output t "f" a;
  Seq.iter
    (fun assignment ->
      let inv = Inverterless.realize t assignment in
      let s = Inverterless.stats inv in
      Alcotest.(check int) "no gates" 0 s.Inverterless.domino_gates;
      let mapped = Mapped.map inv in
      let same =
        Testkit.same_function 1
          (fun v -> Array.to_list (Dpa_logic.Eval.outputs t v))
          (fun v -> Array.to_list (Mapped.eval_original_outputs mapped v))
      in
      Alcotest.(check bool) "wire preserved" true same)
    (Phase.enumerate ~num_outputs:1)

let test_po_driven_by_constant () =
  let t = Netlist.create () in
  let _a = Netlist.add_input t in
  let c = Netlist.add_gate t (Gate.Const true) in
  Netlist.add_output t "f" c;
  Seq.iter
    (fun assignment ->
      let mapped = Mapped.map (Inverterless.realize t assignment) in
      Alcotest.(check (array bool)) "constant preserved" [| true |]
        (Mapped.eval_original_outputs mapped [| false |]))
    (Phase.enumerate ~num_outputs:1)

let test_same_driver_two_outputs () =
  (* two POs share one driver; phases may disagree, forcing both
     polarities of the same node *)
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let g = Netlist.add_gate t (Gate.And [| a; b |]) in
  Netlist.add_output t "f" g;
  Netlist.add_output t "g" g;
  let inv = Inverterless.realize t [| Phase.Positive; Phase.Negative |] in
  let s = Inverterless.stats inv in
  Alcotest.(check int) "both polarities built" 1 s.Inverterless.duplicated_nodes;
  let same =
    Testkit.same_function 2
      (fun v -> Array.to_list (Dpa_logic.Eval.outputs t v))
      (fun v -> Array.to_list (Inverterless.eval_original_outputs inv v))
  in
  Alcotest.(check bool) "equivalent" true same

let test_inverter_chain_collapses_through_phases () =
  (* ¬¬¬¬a under any phase: zero domino gates, only boundary inverters *)
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let n1 = Netlist.add_gate t (Gate.Not a) in
  let n2 = Netlist.add_gate t (Gate.Not n1) in
  let n3 = Netlist.add_gate t (Gate.Not n2) in
  let n4 = Netlist.add_gate t (Gate.Not n3) in
  Netlist.add_output t "f" n4;
  let s = Inverterless.stats (Inverterless.realize t [| Phase.Positive |]) in
  Alcotest.(check int) "no gates" 0 s.Inverterless.domino_gates;
  Alcotest.(check int) "positive literal used" 0 s.Inverterless.input_inverters;
  let s' = Inverterless.stats (Inverterless.realize t [| Phase.Negative |]) in
  Alcotest.(check int) "negative phase needs the bar literal" 1
    s'.Inverterless.input_inverters

(* ---- extreme probabilities ---- *)

let test_extreme_input_probabilities () =
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  List.iter
    (fun p ->
      let probs = Array.make 4 p in
      let mapped = Mapped.map (Inverterless.realize net (Phase.all_positive 2)) in
      let r = Dpa_power.Estimate.of_mapped ~input_probs:probs mapped in
      Alcotest.(check bool) "finite power" true (Float.is_finite r.Dpa_power.Estimate.total);
      Array.iter
        (fun s -> Alcotest.(check bool) "probability range" true (s >= 0.0 && s <= 1.0))
        r.Dpa_power.Estimate.node_probs)
    [ 0.0; 1.0; 1e-9; 1.0 -. 1e-9 ]

let test_all_zero_inputs_zero_domino_power () =
  (* with p = 0 everywhere and a monotone positive network, nothing fires *)
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let g = Netlist.add_gate t (Gate.Or [| a; b |]) in
  Netlist.add_output t "f" g;
  let mapped = Mapped.map (Inverterless.realize t (Phase.all_positive 1)) in
  let r = Dpa_power.Estimate.of_mapped ~input_probs:[| 0.0; 0.0 |] mapped in
  Testkit.check_approx "no discharge ever" 0.0 r.Dpa_power.Estimate.total

(* ---- rng / util corners ---- *)

let test_rng_copy_is_independent_snapshot () =
  let a = Dpa_util.Rng.create 9 in
  ignore (Dpa_util.Rng.bits64 a);
  let b = Dpa_util.Rng.copy a in
  let va = Dpa_util.Rng.bits64 a in
  let vb = Dpa_util.Rng.bits64 b in
  Alcotest.(check int64) "copy continues the stream" va vb;
  (* advancing one does not advance the other *)
  ignore (Dpa_util.Rng.bits64 a);
  Alcotest.(check bool) "independent" true (Dpa_util.Rng.bits64 a <> Dpa_util.Rng.bits64 b)

let test_rng_pick () =
  let rng = Dpa_util.Rng.create 2 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    let v = Dpa_util.Rng.pick rng arr in
    Alcotest.(check bool) "picked member" true (Array.exists (fun x -> x = v) arr)
  done

let test_bitset_copy_and_equal () =
  let a = Dpa_util.Bitset.create 70 in
  Dpa_util.Bitset.add a 69;
  let b = Dpa_util.Bitset.copy a in
  Alcotest.(check bool) "copies equal" true (Dpa_util.Bitset.equal a b);
  Dpa_util.Bitset.add b 0;
  Alcotest.(check bool) "diverged" false (Dpa_util.Bitset.equal a b);
  Alcotest.(check bool) "original untouched" false (Dpa_util.Bitset.mem a 0)

(* ---- io parser corners ---- *)

let test_io_duplicate_definition_rejected () =
  (match Dpa_logic.Io.of_string ".inputs a a\n.outputs a\n.end\n" with
  | Error msg -> Alcotest.(check bool) "dup input" true (Testkit.contains_substring msg "redefinition")
  | Ok _ -> Alcotest.fail "expected duplicate-input error");
  match Dpa_logic.Io.of_string ".inputs a\nf = not a\nf = not a\n.outputs f\n.end\n" with
  | Error msg -> Alcotest.(check bool) "dup gate" true (Testkit.contains_substring msg "redefinition")
  | Ok _ -> Alcotest.fail "expected duplicate-gate error"

let test_io_gate_varieties () =
  let text =
    ".model ops\n.inputs a b\nk1 = const1\nk0 = const0\nw = buf a\nx = xor a b\n\
     f = or k1 k0 w x\n.outputs f\n.end\n"
  in
  let net = Dpa_logic.Io.parse_exn text in
  (* f = 1 ∨ 0 ∨ a ∨ (a⊕b) — always true because of const1 *)
  Alcotest.(check bool) "const1 dominates" true
    (Testkit.same_function 2
       (fun v -> Array.to_list (Dpa_logic.Eval.outputs net v))
       (fun _ -> [ true ]))

let test_io_malformed_arity () =
  match Dpa_logic.Io.of_string ".inputs a\nf = not a a\n.outputs f\n.end\n" with
  | Error msg -> Alcotest.(check bool) "arity error" true (Testkit.contains_substring msg "malformed")
  | Ok _ -> Alcotest.fail "expected arity error"

(* ---- gate helpers ---- *)

let test_gate_dual_and_errors () =
  Alcotest.(check bool) "and dual" true
    (Gate.equal (Gate.dual (Gate.And [| 1; 2 |])) (Gate.Or [| 1; 2 |]));
  Alcotest.(check bool) "or dual" true
    (Gate.equal (Gate.dual (Gate.Or [| 3 |])) (Gate.And [| 3 |]));
  Alcotest.check_raises "not has no dual"
    (Invalid_argument "Gate.dual: only AND/OR gates have a DeMorgan dual") (fun () ->
      ignore (Gate.dual (Gate.Not 0)))

let test_gate_pp () =
  let s g = Format.asprintf "%a" Gate.pp g in
  Alcotest.(check string) "and" "and(1,2,3)" (s (Gate.And [| 1; 2; 3 |]));
  Alcotest.(check string) "not" "not(7)" (s (Gate.Not 7));
  Alcotest.(check string) "const" "const1" (s (Gate.Const true));
  Alcotest.(check string) "xor" "xor(1,2)" (s (Gate.Xor (1, 2)))

let test_eval_too_many_inputs () =
  let t = Netlist.create () in
  for _ = 1 to 21 do
    ignore (Netlist.add_input t)
  done;
  Netlist.add_output t "f" 0;
  Alcotest.check_raises "enumeration bound"
    (Invalid_argument "Eval: 21 inputs is too many to enumerate") (fun () ->
      ignore (Dpa_logic.Eval.output_table t))

(* ---- netlist copy independence ---- *)

let test_netlist_copy_independent () =
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  Netlist.add_output t "f" a;
  let t' = Netlist.copy t in
  let b = Netlist.add_input ~name:"b" t' in
  Netlist.add_output t' "g" b;
  Alcotest.(check int) "original inputs" 1 (Netlist.num_inputs t);
  Alcotest.(check int) "copy inputs" 2 (Netlist.num_inputs t');
  Alcotest.(check int) "original outputs" 1 (Netlist.num_outputs t)

(* ---- annealing determinism ---- *)

let test_annealing_deterministic () =
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  let probs = Array.make 4 0.7 in
  let run () =
    let m = Dpa_phase.Measure.create ~input_probs:probs net in
    let rng = Dpa_util.Rng.create 31 in
    (Dpa_phase.Annealing.run rng m ~num_outputs:2).Dpa_phase.Annealing.power
  in
  Testkit.check_approx "same seed, same answer" (run ()) (run ())

(* ---- timing literal arrival ---- *)

let test_sta_negative_literal_arrives_late () =
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  let na = Netlist.add_gate t (Gate.Not a) in
  let b = Netlist.add_input ~name:"b" t in
  let g = Netlist.add_gate t (Gate.And [| na; b |]) in
  Netlist.add_output t "f" g;
  let mapped = Mapped.map (Inverterless.realize t (Phase.all_positive 1)) in
  let r = Dpa_timing.Sta.analyze mapped in
  (* the ~a literal input carries the inverter delay; b arrives at 0 *)
  let blk = Mapped.net mapped in
  let lits = Mapped.literals mapped in
  Array.iteri
    (fun pos id ->
      let _, pol = lits.(pos) in
      match pol with
      | Inverterless.Neg ->
        Testkit.check_approx "bar literal late" Dpa_timing.Delay.default.Dpa_timing.Delay.inverter_delay
          r.Dpa_timing.Sta.arrival.(id)
      | Inverterless.Pos -> Testkit.check_approx "true literal at 0" 0.0 r.Dpa_timing.Sta.arrival.(id))
    (Netlist.inputs blk)

(* ---- generator bias spread ---- *)

let test_generator_bias_spread_changes_mix () =
  let base =
    { Dpa_workload.Generator.default with
      Dpa_workload.Generator.seed = 7;
      n_outputs = 2;
      gates_per_output = 30;
      inverter_prob = 0.0 }
  in
  let count_kind params =
    let net = Dpa_workload.Generator.combinational params in
    let ands = ref 0 and ors = ref 0 in
    Netlist.iter_nodes
      (fun _ g ->
        match g with
        | Gate.And _ -> incr ands
        | Gate.Or _ -> incr ors
        | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ -> ())
      net;
    (!ands, !ors)
  in
  let spread_ands, spread_ors =
    count_kind { base with Dpa_workload.Generator.bias_spread = 0.45 }
  in
  (* with outputs alternating strongly OR- and AND-leaning, both kinds
     must be present in quantity *)
  Alcotest.(check bool) "both kinds present" true (spread_ands > 5 && spread_ors > 5)

(* ---- blif latch init variants ---- *)

let test_blif_latch_init_variants () =
  let parse init =
    let text =
      Printf.sprintf ".model l\n.inputs x\n.outputs q\n.latch d q %s\n.names x d\n1 1\n.end\n"
        init
    in
    match Dpa_logic.Blif.sequential_of_string text with
    | Ok seq -> seq.Dpa_logic.Blif.latches.(0).Dpa_logic.Blif.init
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  Alcotest.(check bool) "init 0" false (parse "0");
  Alcotest.(check bool) "init 1" true (parse "1");
  Alcotest.(check bool) "init 2 (don't care)" false (parse "2");
  Alcotest.(check bool) "init 3 (unknown)" false (parse "3");
  Alcotest.(check bool) "typed latch" true (parse "re clk 1")

let test_writer_label_collisions () =
  (* a user-chosen name "n2" must not merge with the generated label of
     the unnamed node 2 when serializing *)
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  let b = Netlist.add_input ~name:"n2" t in
  (* node 2: unnamed — its generated label would naively be "n2" *)
  let g = Netlist.add_gate t (Gate.And [| a; b |]) in
  let h = Netlist.add_gate t (Gate.Or [| g; a |]) in
  Netlist.add_output t "f" h;
  List.iter
    (fun (label, text) ->
      let reparsed =
        match label with
        | `Dln -> Dpa_logic.Io.parse_exn text
        | `Blif -> (
          match Dpa_logic.Blif.of_string text with
          | Ok net -> net
          | Error msg -> Alcotest.failf "blif reparse: %s" msg)
      in
      let same =
        Testkit.same_function 2
          (fun v -> Array.to_list (Dpa_logic.Eval.outputs t v))
          (fun v -> Array.to_list (Dpa_logic.Eval.outputs reparsed v))
      in
      Alcotest.(check bool) "function survives collision" true same)
    [ (`Dln, Dpa_logic.Io.to_string t); (`Blif, Dpa_logic.Blif.to_string t) ]

let test_reorder_pass_cap () =
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.carry_chain ~width:4) in
  let r = Dpa_bdd.Reorder.refine ~max_passes:1 net (Dpa_bdd.Ordering.declaration net) in
  Alcotest.(check bool) "at most one pass" true (r.Dpa_bdd.Reorder.passes <= 1);
  Alcotest.(check bool) "never worse" true
    (r.Dpa_bdd.Reorder.nodes <= r.Dpa_bdd.Reorder.initial_nodes)

let test_exact_mfvs_weighted_bypass_safety () =
  (* a weight-2 supervertex on a 2-cycle with a weight-1 partner: the
     optimum must cut the light vertex, and the weight-guarded bypass must
     not be fooled into swapping toward the heavy one *)
  let g = Dpa_seq.Sgraph.create 3 in
  Dpa_seq.Sgraph.add_edge g 0 1;
  Dpa_seq.Sgraph.add_edge g 1 0;
  Dpa_seq.Sgraph.add_edge g 1 2;
  Dpa_seq.Sgraph.add_edge g 2 1;
  Dpa_seq.Sgraph.merge g ~into:1 2 (* vertex 1 now weighs 2 *);
  match Dpa_seq.Exact_mfvs.solve g with
  | None -> Alcotest.fail "gave up"
  | Some r ->
    Alcotest.(check int) "optimal weight 1" 1 r.Dpa_seq.Exact_mfvs.weight;
    Alcotest.(check (list int)) "cuts the light vertex" [ 0 ] r.Dpa_seq.Exact_mfvs.fvs

let test_tuple_limit_cap () =
  let p =
    { Dpa_workload.Generator.default with
      Dpa_workload.Generator.seed = 5;
      n_outputs = 6;
      gates_per_output = 6 }
  in
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Generator.combinational p) in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  let cost = Dpa_phase.Cost.make net in
  let m = Dpa_phase.Measure.create ~input_probs:probs net in
  (* C(6,2) = 15 pairs; cap at 4 *)
  let r = Dpa_phase.Tuple_search.run ~tuple_limit:4 ~k:2 m ~cost in
  Alcotest.(check int) "candidate cap respected" 4
    r.Dpa_phase.Tuple_search.tuples_considered;
  Alcotest.(check bool) "still improves or holds" true
    (r.Dpa_phase.Tuple_search.power <= r.Dpa_phase.Tuple_search.initial_power +. 1e-9)

let test_netstats_on_structured_circuit () =
  let s = Dpa_logic.Netstats.compute (Dpa_workload.Examples.decoder ~bits:3) in
  (* 3 inverters + 8 AND3 terms *)
  Alcotest.(check (list (pair string int))) "decoder mix"
    [ ("and3", 8); ("not", 3) ]
    (List.sort compare s.Dpa_logic.Netstats.gate_histogram);
  Alcotest.(check int) "depth 2" 2 s.Dpa_logic.Netstats.max_depth

let test_table_float_decimals () =
  Alcotest.(check string) "default decimals" "1.23" (Dpa_util.Table.cell_float 1.2345);
  Alcotest.(check string) "explicit decimals" "1.2345"
    (Dpa_util.Table.cell_float ~decimals:4 1.2345)

let suite =
  [ Alcotest.test_case "writer label collisions" `Quick test_writer_label_collisions;
    Alcotest.test_case "reorder pass cap" `Quick test_reorder_pass_cap;
    Alcotest.test_case "exact mfvs weighted" `Quick test_exact_mfvs_weighted_bypass_safety;
    Alcotest.test_case "tuple limit cap" `Quick test_tuple_limit_cap;
    Alcotest.test_case "netstats structured" `Quick test_netstats_on_structured_circuit;
    Alcotest.test_case "table decimals" `Quick test_table_float_decimals;
    Alcotest.test_case "PO driven by PI" `Quick test_po_driven_by_pi;
    Alcotest.test_case "PO driven by constant" `Quick test_po_driven_by_constant;
    Alcotest.test_case "shared driver, split phases" `Quick test_same_driver_two_outputs;
    Alcotest.test_case "inverter chain" `Quick test_inverter_chain_collapses_through_phases;
    Alcotest.test_case "extreme probabilities" `Quick test_extreme_input_probabilities;
    Alcotest.test_case "all-zero inputs" `Quick test_all_zero_inputs_zero_domino_power;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_is_independent_snapshot;
    Alcotest.test_case "rng pick" `Quick test_rng_pick;
    Alcotest.test_case "bitset copy/equal" `Quick test_bitset_copy_and_equal;
    Alcotest.test_case "io duplicate definitions" `Quick test_io_duplicate_definition_rejected;
    Alcotest.test_case "io gate varieties" `Quick test_io_gate_varieties;
    Alcotest.test_case "io malformed arity" `Quick test_io_malformed_arity;
    Alcotest.test_case "gate dual" `Quick test_gate_dual_and_errors;
    Alcotest.test_case "gate pp" `Quick test_gate_pp;
    Alcotest.test_case "eval enumeration bound" `Quick test_eval_too_many_inputs;
    Alcotest.test_case "netlist copy independence" `Quick test_netlist_copy_independent;
    Alcotest.test_case "annealing determinism" `Quick test_annealing_deterministic;
    Alcotest.test_case "sta literal arrival" `Quick test_sta_negative_literal_arrives_late;
    Alcotest.test_case "generator bias spread" `Quick test_generator_bias_spread_changes_mix;
    Alcotest.test_case "blif latch inits" `Quick test_blif_latch_init_variants ]
