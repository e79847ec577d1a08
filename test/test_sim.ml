module Vectors = Dpa_sim.Vectors
module Simulator = Dpa_sim.Simulator
module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase
module Mapped = Dpa_domino.Mapped
module Estimate = Dpa_power.Estimate

let test_vectors_probabilities () =
  let rng = Dpa_util.Rng.create 5 in
  let probs = [| 0.1; 0.5; 0.9 |] in
  let vectors = Vectors.generate rng ~probs ~cycles:20_000 in
  let emp = Vectors.empirical_probs vectors in
  Array.iteri
    (fun k p ->
      Alcotest.(check bool)
        (Printf.sprintf "input %d near %.1f" k p)
        true
        (Float.abs (emp.(k) -. p) < 0.02))
    probs

let test_vectors_empty () =
  Alcotest.(check (array (float 0.0))) "no vectors" [||] (Vectors.empirical_probs [||])

let fig5_mapped assignment =
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  Mapped.map (Dpa_synth.Inverterless.realize net assignment)

let test_measured_power_matches_estimate () =
  (* the PowerMill substitute must agree with the BDD estimator on the
     Fig. 5 circuit within Monte Carlo error *)
  let probs = Array.make 4 0.9 in
  List.iter
    (fun assignment ->
      let mapped = fig5_mapped assignment in
      let est = Estimate.of_mapped ~input_probs:probs mapped in
      let rng = Dpa_util.Rng.create 17 in
      let meas =
        Estimate.of_activity mapped
          (Simulator.measure ~cycles:40_000 rng ~input_probs:probs mapped)
      in
      let rel =
        Dpa_util.Stats.relative_error ~expected:est.Estimate.total
          ~actual:meas.Estimate.total
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 5%%" (Phase.to_string assignment))
        true (rel < 0.05))
    [ [| Phase.Negative; Phase.Positive |]; [| Phase.Positive; Phase.Negative |] ]

let test_property_2_1_empirical () =
  (* measured switching of every dynamic cell equals its measured signal
     probability: the simulator counts discharges, so fire_counts/cycles
     must match the BDD signal probabilities *)
  let probs = Array.make 4 0.5 in
  let mapped = fig5_mapped (Phase.all_positive 2) in
  let est_probs = (Estimate.of_mapped ~input_probs:probs mapped).Estimate.node_probs in
  let rng = Dpa_util.Rng.create 23 in
  let meas = Simulator.measure ~cycles:50_000 rng ~input_probs:probs mapped in
  Netlist.iter_nodes
    (fun i _ ->
      match Mapped.cell_of_node mapped i with
      | Some _ ->
        let s = float_of_int meas.Simulator.fire_counts.(i) /. 50_000.0 in
        Alcotest.(check bool) "S within 2%" true (Float.abs (s -. est_probs.(i)) < 0.02)
      | None -> ())
    (Mapped.net mapped)

let test_property_2_2_no_glitches () =
  (* under adversarial input arrival orders, every node of the domino
     block makes at most one transition per evaluate phase and settles to
     the zero-delay value *)
  let mapped = fig5_mapped [| Phase.Positive; Phase.Negative |] in
  let rng = Dpa_util.Rng.create 31 in
  for m = 0 to 15 do
    let vec = Array.init 4 (fun k -> (m lsr k) land 1 = 1) in
    let trace = Simulator.event_evaluate rng mapped vec in
    Array.iter
      (fun rises -> Alcotest.(check bool) "at most one rise" true (rises <= 1))
      trace.Simulator.rises;
    (* settles to zero-delay evaluation *)
    let lits = Mapped.literals mapped in
    let lit_vec =
      Array.map
        (fun (pos, pol) ->
          match pol with
          | Dpa_synth.Inverterless.Pos -> vec.(pos)
          | Dpa_synth.Inverterless.Neg -> not vec.(pos))
        lits
    in
    let expected = Dpa_logic.Eval.all_nodes (Mapped.net mapped) lit_vec in
    Alcotest.(check (array bool)) "settles to zero-delay values" expected
      trace.Simulator.final
  done

let test_compound_simulation_matches_estimate () =
  (* absorbed AND terms are invisible to pricing in BOTH the estimator and
     the simulator; the two must still agree under compound mapping *)
  let t = Netlist.create () in
  let xs = Array.init 6 (fun k -> Netlist.add_input ~name:(Printf.sprintf "x%d" k) t) in
  let t1 = Netlist.add_gate t (Dpa_logic.Gate.And [| xs.(0); xs.(1) |]) in
  let t2 = Netlist.add_gate t (Dpa_logic.Gate.And [| xs.(2); xs.(3); xs.(4) |]) in
  let f = Netlist.add_gate t (Dpa_logic.Gate.Or [| t1; t2; xs.(5) |]) in
  Netlist.add_output t "f" f;
  let library = Dpa_domino.Library.with_compound Dpa_domino.Library.default in
  let mapped =
    Mapped.map ~library (Dpa_synth.Inverterless.realize t [| Phase.Negative |])
  in
  let probs = Array.make 6 0.4 in
  let est = Estimate.of_mapped ~input_probs:probs mapped in
  let rng = Dpa_util.Rng.create 41 in
  let meas =
    Estimate.of_activity mapped
      (Simulator.measure ~cycles:40_000 rng ~input_probs:probs mapped)
  in
  let rel =
    Dpa_util.Stats.relative_error ~expected:est.Estimate.total
      ~actual:meas.Estimate.total
  in
  Alcotest.(check bool) "within 5%" true (rel < 0.05)

let test_measure_cycle_validation () =
  let mapped = fig5_mapped (Phase.all_positive 2) in
  Alcotest.check_raises "cycles > 0"
    (Invalid_argument "Simulator.measure: cycles must be positive") (fun () ->
      ignore
        (Simulator.measure ~cycles:0 (Dpa_util.Rng.create 1) ~input_probs:(Array.make 4 0.5)
           mapped))

(* property: estimator and simulator agree on random circuits *)
let prop_sim_matches_estimate =
  Testkit.qcheck_case ~count:15 ~name:"simulation matches BDD estimate"
    (Testkit.arbitrary_netlist ~n_inputs:5 ~max_gates:10 ())
    (fun net ->
      let net = Dpa_synth.Opt.optimize net in
      let a = Phase.all_positive (Netlist.num_outputs net) in
      let mapped = Mapped.map (Dpa_synth.Inverterless.realize net a) in
      let probs = Array.make (Netlist.num_inputs net) 0.5 in
      let est = Estimate.of_mapped ~input_probs:probs mapped in
      let rng = Dpa_util.Rng.create 7 in
      let meas =
        Estimate.of_activity mapped
          (Simulator.measure ~cycles:30_000 rng ~input_probs:probs mapped)
      in
      (* absolute tolerance scaled by block size: each node's Monte Carlo
         error is a few per mille over 30k cycles *)
      let tolerance = 0.05 *. Float.max est.Estimate.total 1.0 in
      Float.abs (est.Estimate.total -. meas.Estimate.total) < tolerance)

(* property: event-driven evaluation never glitches on random circuits *)
let prop_no_glitches =
  Testkit.qcheck_case ~count:40 ~name:"domino blocks never glitch"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net = Dpa_synth.Opt.optimize net in
      let a = Phase.all_positive (Netlist.num_outputs net) in
      let mapped = Mapped.map (Dpa_synth.Inverterless.realize net a) in
      let rng = Dpa_util.Rng.create 99 in
      let n = Netlist.num_inputs net in
      let ok = ref true in
      for m = 0 to min 15 ((1 lsl n) - 1) do
        let vec = Array.init n (fun k -> (m lsr k) land 1 = 1) in
        let trace = Simulator.event_evaluate rng mapped vec in
        Array.iter (fun r -> if r > 1 then ok := false) trace.Simulator.rises
      done;
      !ok)

let test_static_sim_inverter_chain_no_glitches () =
  (* a chain has a single path: no reconvergence, no glitches *)
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let n1 = Netlist.add_gate t (Dpa_logic.Gate.Not a) in
  let n2 = Netlist.add_gate t (Dpa_logic.Gate.Not n1) in
  Netlist.add_output t "f" n2;
  let rng = Dpa_util.Rng.create 3 in
  let m = Dpa_sim.Static_sim.measure ~cycles:4000 rng ~input_probs:[| 0.5 |] t in
  Testkit.check_approx ~eps:1e-9 "clean ratio" 1.0 m.Dpa_sim.Static_sim.glitch_ratio;
  (* both inverters toggle whenever a toggles: 2 × 2·p(1-p) = 1 per cycle *)
  Alcotest.(check bool) "zero-delay near 1" true
    (Float.abs (m.Dpa_sim.Static_sim.zero_delay -. 1.0) < 0.06)

let test_static_sim_reconvergence_glitches () =
  (* f = a ⊕ a-delayed-through-gates: changing a in two steps glitches f.
     Use f = (a ∧ b) ∨ (¬a ∧ b): logically = b, but the realization
     glitches when a changes while b stays high. *)
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let na = Netlist.add_gate t (Dpa_logic.Gate.Not a) in
  let t1 = Netlist.add_gate t (Dpa_logic.Gate.And [| a; b |]) in
  let t2 = Netlist.add_gate t (Dpa_logic.Gate.And [| na; b |]) in
  let f = Netlist.add_gate t (Dpa_logic.Gate.Or [| t1; t2 |]) in
  Netlist.add_output t "f" f;
  let rng = Dpa_util.Rng.create 5 in
  let m = Dpa_sim.Static_sim.measure ~cycles:6000 rng ~input_probs:[| 0.5; 0.9 |] t in
  (* f's final value is b: it "never changes" at steady b, yet the OR must
     glitch while a's change races through the two branches *)
  Alcotest.(check bool) "glitches observed" true
    (m.Dpa_sim.Static_sim.with_glitches > m.Dpa_sim.Static_sim.zero_delay +. 0.05)

let test_static_sim_validation () =
  let t = Netlist.create () in
  let _a = Netlist.add_input t in
  Alcotest.check_raises "cycles > 0"
    (Invalid_argument "Static_sim.measure: cycles must be positive") (fun () ->
      ignore
        (Dpa_sim.Static_sim.measure ~cycles:0 (Dpa_util.Rng.create 1) ~input_probs:[| 0.5 |] t))

(* property: glitches only ever add transitions, and the zero-delay count
   matches the analytic 2p(1-p) total within Monte Carlo error *)
let prop_static_sim_consistent =
  Testkit.qcheck_case ~count:15 ~name:"static sim: glitches ≥ zero-delay ≈ analytic"
    (Testkit.arbitrary_netlist ~n_inputs:5 ~max_gates:8 ())
    (fun net ->
      let rng = Dpa_util.Rng.create 11 in
      let probs = Array.make 5 0.5 in
      let m = Dpa_sim.Static_sim.measure ~cycles:20_000 rng ~input_probs:probs net in
      let analytic =
        (Dpa_power.Static_model.of_netlist ~input_probs:probs net)
          .Dpa_power.Static_model.gate_total
      in
      m.Dpa_sim.Static_sim.with_glitches >= m.Dpa_sim.Static_sim.zero_delay -. 1e-9
      && Float.abs (m.Dpa_sim.Static_sim.zero_delay -. analytic)
         <= 0.05 *. Float.max analytic 1.0)

let suite =
  [ Alcotest.test_case "vector probabilities" `Quick test_vectors_probabilities;
    Alcotest.test_case "static sim clean chain" `Quick
      test_static_sim_inverter_chain_no_glitches;
    Alcotest.test_case "static sim glitches" `Quick test_static_sim_reconvergence_glitches;
    Alcotest.test_case "static sim validation" `Quick test_static_sim_validation;
    prop_static_sim_consistent;
    Alcotest.test_case "vectors empty" `Quick test_vectors_empty;
    Alcotest.test_case "measurement matches estimate" `Quick test_measured_power_matches_estimate;
    Alcotest.test_case "property 2.1 empirical" `Quick test_property_2_1_empirical;
    Alcotest.test_case "property 2.2 no glitches" `Quick test_property_2_2_no_glitches;
    Alcotest.test_case "compound sim matches estimate" `Quick test_compound_simulation_matches_estimate;
    Alcotest.test_case "cycle validation" `Quick test_measure_cycle_validation;
    prop_sim_matches_estimate;
    prop_no_glitches ]
