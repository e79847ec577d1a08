(* The compiled bit-parallel simulator. The contract under test is exact
   equality with a cycle-at-a-time interpreter — same per-node fire
   counts, same per-input toggle counts, same probabilities — for equal
   seeds at every cycle count, including partial final passes
   (cycles mod 63 ≠ 0). For mapped blocks the interpreter is
   [Simulator.measure_reference]; for raw netlists it is a per-cycle
   [Eval.all_nodes] walk defined here. Floats are compared through
   [Int64.bits_of_float]: both sides share one Bernoulli stream, so
   "close" is not good enough. *)

module Compiled = Dpa_sim.Compiled
module Simulator = Dpa_sim.Simulator
module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Phase = Dpa_synth.Phase
module Mapped = Dpa_domino.Mapped
module Rng = Dpa_util.Rng
module Engine = Dpa_power.Engine

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_blif path =
  let text = read_file path in
  match Dpa_logic.Blif.of_string text with
  | Ok net -> net
  | Error _ -> (
    match Dpa_logic.Blif.sequential_of_string text with
    | Ok s -> s.Dpa_logic.Blif.comb
    | Error msg -> Alcotest.failf "%s failed to parse: %s" path msg)

let data_files =
  [
    "../data/apex7_synthetic.blif";
    "../data/frg1_synthetic.blif";
    "../data/seq_controller.blif";
  ]

(* optimize + all-positive realization + mapping, keeping the optimized
   netlist so input_probs is sized off the original PI count *)
let prep raw =
  let net = Dpa_synth.Opt.optimize raw in
  let mapped =
    Mapped.map (Dpa_synth.Inverterless.realize net (Phase.all_positive (Netlist.num_outputs net)))
  in
  (net, mapped)

let check_identity ~name ~cycles ~seed (net, mapped) =
  let input_probs = Array.make (Netlist.num_inputs net) 0.5 in
  let interp = Simulator.measure_reference ~cycles (Rng.create seed) ~input_probs mapped in
  let compiled = Simulator.measure ~cycles (Rng.create seed) ~input_probs mapped in
  let tag = Printf.sprintf "%s@%d" name cycles in
  Alcotest.(check (array int))
    (tag ^ " fire counts")
    interp.Simulator.fire_counts compiled.Simulator.fire_counts;
  Testkit.check_bits_array (tag ^ " input toggles") interp.Simulator.input_toggles
    compiled.Simulator.input_toggles;
  Testkit.check_bits_array (tag ^ " node probs") interp.Simulator.node_probs
    compiled.Simulator.node_probs;
  Alcotest.(check int) (tag ^ " cycles") interp.Simulator.cycles compiled.Simulator.cycles

(* ---- bit-identity across the data/ circuits ----------------------- *)

let test_identity_data_circuits () =
  List.iter
    (fun path ->
      let prepped = prep (load_blif path) in
      (* 1 and 62: single partial pass; 63: exactly one full pass; 64 and
         1000: full passes plus a partial tail crossing pass boundaries *)
      List.iter
        (fun cycles ->
          check_identity ~name:(Filename.basename path) ~cycles ~seed:2024 prepped)
        [ 1; 62; 63; 64; 1000 ])
    data_files

let test_identity_workload_profiles () =
  (* table profiles only: corpus profiles are exercised (at CI size) by
     test_corpus, and the big ones are too large for a per-seed sweep *)
  List.iter
    (fun p ->
      let name = p.Dpa_workload.Profiles.name in
      let prepped = prep (Dpa_workload.Profiles.build_comb p) in
      List.iter (fun cycles -> check_identity ~name ~cycles ~seed:7 prepped) [ 65; 126 ])
    Dpa_workload.Profiles.table1

let test_identity_many_seeds () =
  (* the stream equality must hold for any seed, not just a lucky one *)
  let prepped = prep (load_blif "../data/frg1_synthetic.blif") in
  List.iter
    (fun seed -> check_identity ~name:"frg1" ~cycles:200 ~seed prepped)
    [ 1; 2; 3; 17; 123456 ]

let test_engine_sim_stream () =
  (* the exact stream the engine's sim rung consumes (budgeted
     [estimate], [validate] and [run] alike): the budget's cycle count
     from the engine's seed *)
  let budget = Engine.bounded ~max_bdd_nodes:50 () in
  let cycles = Engine.sim_cycles_of budget in
  List.iter
    (fun path ->
      check_identity ~name:(Filename.basename path) ~cycles ~seed:Engine.sim_seed
        (prep (load_blif path)))
    [ "../data/apex7_synthetic.blif"; "../data/frg1_synthetic.blif" ]

(* ---- netlist tape vs a per-cycle interpreter ---------------------- *)

(* one [Eval.all_nodes] walk per cycle, drawing the inputs in ascending
   order within the cycle — the stream order the tape packs into lanes *)
let interp_node_probabilities ~cycles rng ~input_probs net =
  let counts = Array.make (Netlist.size net) 0 in
  for _ = 1 to cycles do
    let vec = Array.map (fun p -> Rng.bernoulli rng p) input_probs in
    Array.iteri
      (fun i v -> if v then counts.(i) <- counts.(i) + 1)
      (Dpa_logic.Eval.all_nodes net vec)
  done;
  Array.map (fun c -> float_of_int c /. float_of_int cycles) counts

let test_netlist_probabilities () =
  (* the netlist tape, every gate type lowered, against the walk it
     packs into lanes *)
  List.iter
    (fun path ->
      let net, _ = prep (load_blif path) in
      let prog = Compiled.of_netlist net in
      List.iter
        (fun p ->
          let input_probs = Array.make (Netlist.num_inputs net) p in
          List.iter
            (fun cycles ->
              Testkit.check_bits_array
                (Printf.sprintf "%s@%d p=%g" (Filename.basename path) cycles p)
                (interp_node_probabilities ~cycles (Rng.create 11) ~input_probs net)
                (Compiled.node_probabilities ~cycles (Rng.create 11) ~input_probs prog))
            [ 1; 62; 63; 64; 1000 ])
        [ 0.5; 0.3 ])
    data_files

(* ---- tape lowering ------------------------------------------------ *)

let test_lowering_constants () =
  (* constant nodes must hold their value in every lane, full and partial
     passes alike; a gate fed by a constant folds to the live input *)
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  let ct = Netlist.add_gate t (Gate.Const true) in
  let cf = Netlist.add_gate t (Gate.Const false) in
  let f = Netlist.add_gate t (Gate.And [| a; ct |]) in
  let g = Netlist.add_gate t (Gate.Or [| a; cf |]) in
  Netlist.add_output t "f" f;
  Netlist.add_output t "g" g;
  let prog = Compiled.of_netlist t in
  Alcotest.(check int) "n_nodes" (Netlist.size t) (Compiled.n_nodes prog);
  let probs =
    Compiled.node_probabilities ~cycles:70 (Rng.create 3) ~input_probs:[| 0.5 |] prog
  in
  Testkit.check_bits "const true" 1.0 probs.(ct);
  Testkit.check_bits "const false" 0.0 probs.(cf);
  (* f = a ∧ 1 = a and g = a ∨ 0 = a: all three sample the same stream *)
  Testkit.check_bits "and with true = a" probs.(a) probs.(f);
  Testkit.check_bits "or with false = a" probs.(a) probs.(g)

let test_lowering_single_gates () =
  (* deterministic inputs (p = 1 or 0) make every gate's output exact *)
  let t = Netlist.create () in
  let one = Netlist.add_input ~name:"one" t in
  let zero = Netlist.add_input ~name:"zero" t in
  let and2 = Netlist.add_gate t (Gate.And [| one; zero |]) in
  let or2 = Netlist.add_gate t (Gate.Or [| one; zero |]) in
  let not1 = Netlist.add_gate t (Gate.Not one) in
  let buf1 = Netlist.add_gate t (Gate.Buf zero) in
  let and1 = Netlist.add_gate t (Gate.And [| one |]) in
  let and3 = Netlist.add_gate t (Gate.And [| one; one; zero |]) in
  let or3 = Netlist.add_gate t (Gate.Or [| zero; zero; one |]) in
  Netlist.add_output t "f" or3;
  let prog = Compiled.of_netlist t in
  let probs =
    Compiled.node_probabilities ~cycles:100 (Rng.create 9) ~input_probs:[| 1.0; 0.0 |]
      prog
  in
  Testkit.check_bits "and2(1,0)" 0.0 probs.(and2);
  Testkit.check_bits "or2(1,0)" 1.0 probs.(or2);
  Testkit.check_bits "not(1)" 0.0 probs.(not1);
  Testkit.check_bits "buf(0)" 0.0 probs.(buf1);
  Testkit.check_bits "and1(1)" 1.0 probs.(and1);
  Testkit.check_bits "and3(1,1,0)" 0.0 probs.(and3);
  Testkit.check_bits "or3(0,0,1)" 1.0 probs.(or3)

let test_lowering_xor_chain () =
  (* a parity chain over always-one inputs: node k of the chain holds the
     parity of k+2 ones, so probabilities alternate 0/1 exactly *)
  let n = 8 in
  let t = Netlist.create () in
  let xs = Array.init n (fun k -> Netlist.add_input ~name:(Printf.sprintf "x%d" k) t) in
  let chain = Array.make (n - 1) 0 in
  let prev = ref xs.(0) in
  for k = 1 to n - 1 do
    let y = Netlist.add_gate t (Gate.Xor (!prev, xs.(k))) in
    chain.(k - 1) <- y;
    prev := y
  done;
  Netlist.add_output t "parity" !prev;
  let prog = Compiled.of_netlist t in
  let probs =
    Compiled.node_probabilities ~cycles:63 (Rng.create 2) ~input_probs:(Array.make n 1.0)
      prog
  in
  Array.iteri
    (fun k y ->
      let expected = if (k + 2) mod 2 = 0 then 0.0 else 1.0 in
      Testkit.check_bits (Printf.sprintf "parity of %d ones" (k + 2)) expected probs.(y))
    chain

let test_measure_counts_validation () =
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  Netlist.add_output t "f" a;
  let prog = Compiled.of_netlist t in
  Alcotest.(check bool) "cycles=0 rejected" true
    (match
       Compiled.measure_counts ~cycles:0 (Rng.create 1) ~input_probs:[| 0.5 |] prog
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---- engine integration: jobs invariance -------------------------- *)

let test_engine_jobs_invariance () =
  (* a node budget tight enough that cones fall through to the
     Monte-Carlo rung: jobs=1 and jobs=4 must price every node
     bit-identically (one whole-block stream from the budget's seed).
     The cap bounds each shard's manager, so it must be smaller than any
     nontrivial cone *)
  let net, mapped = prep (load_blif "../data/frg1_synthetic.blif") in
  let input_probs = Array.make (Netlist.num_inputs net) 0.5 in
  let budget = Engine.bounded ~max_bdd_nodes:2 () in
  let run jobs =
    Dpa_util.Par.with_pool ~jobs (fun pool ->
        Engine.estimate ~par:pool ~budget ~input_probs mapped)
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "sim rung exercised" true
    (Engine.simulated_cones r1.Engine.degradation > 0);
  Testkit.check_bits "total" r1.Engine.report.Dpa_power.Estimate.total
    r4.Engine.report.Dpa_power.Estimate.total;
  Testkit.check_bits_array "node probs" r1.Engine.report.Dpa_power.Estimate.node_probs
    r4.Engine.report.Dpa_power.Estimate.node_probs

(* ---- unified cycle default ---------------------------------------- *)

let test_default_cycles () =
  Alcotest.(check int) "shared constant" 10_000 Compiled.default_cycles;
  let _, mapped = prep (Dpa_workload.Examples.fig5 ()) in
  let a = Simulator.measure (Rng.create 1) ~input_probs:(Array.make 4 0.5) mapped in
  Alcotest.(check int) "Simulator.measure default" Compiled.default_cycles
    a.Simulator.cycles;
  let t = Netlist.create () in
  let x = Netlist.add_input t in
  let y = Netlist.add_gate t (Gate.Not x) in
  Netlist.add_output t "f" y;
  let m = Dpa_sim.Static_sim.measure (Rng.create 1) ~input_probs:[| 0.5 |] t in
  Alcotest.(check int) "Static_sim.measure default" Compiled.default_cycles
    m.Dpa_sim.Static_sim.cycles

let suite =
  [ Alcotest.test_case "identity on data circuits" `Quick test_identity_data_circuits;
    Alcotest.test_case "identity on workload profiles" `Quick
      test_identity_workload_profiles;
    Alcotest.test_case "identity across seeds" `Quick test_identity_many_seeds;
    Alcotest.test_case "engine sim stream = reference" `Quick test_engine_sim_stream;
    Alcotest.test_case "netlist tape = per-cycle interpreter" `Quick
      test_netlist_probabilities;
    Alcotest.test_case "lowering: constants" `Quick test_lowering_constants;
    Alcotest.test_case "lowering: single gates" `Quick test_lowering_single_gates;
    Alcotest.test_case "lowering: xor chain" `Quick test_lowering_xor_chain;
    Alcotest.test_case "measure_counts validation" `Quick test_measure_counts_validation;
    Alcotest.test_case "engine jobs invariance" `Quick test_engine_jobs_invariance;
    Alcotest.test_case "unified cycle default" `Quick test_default_cycles ]
