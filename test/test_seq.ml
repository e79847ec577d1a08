module Seq_netlist = Dpa_seq.Seq_netlist
module Sgraph = Dpa_seq.Sgraph
module Mfvs = Dpa_seq.Mfvs
module Partition = Dpa_seq.Partition
module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate

let test_seq_netlist_validation () =
  let t = Netlist.create () in
  let _x = Netlist.add_input t in
  Alcotest.check_raises "wrong input count"
    (Invalid_argument "Seq_netlist.create: core has 1 inputs, expected 2") (fun () ->
      ignore
        (Seq_netlist.create ~comb:t ~n_real_inputs:1
           ~ffs:[| { Seq_netlist.data = 0; init = false } |]))

let test_ring_counter_simulation () =
  let ring = Dpa_workload.Examples.ring_counter ~n:4 in
  (* enable high for 8 cycles: the hot bit rotates with period 4 *)
  let vectors = Array.make 8 [| true |] in
  let outs = Seq_netlist.simulate ring vectors in
  let head = Array.map (fun o -> o.(0)) outs in
  (* q0 starts true; the observed head output is the state *during* the
     cycle, so it reads true at cycles 0, 4 and again at 8... *)
  Alcotest.(check bool) "cycle0 head" true head.(0);
  Alcotest.(check bool) "cycle1 head" false head.(1);
  Alcotest.(check bool) "cycle4 head" true head.(4);
  (* exactly 2 of 8 observations are hot at q0 *)
  let hot = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 head in
  Alcotest.(check int) "period 4" 2 hot

let test_ring_counter_disabled () =
  let ring = Dpa_workload.Examples.ring_counter ~n:3 in
  (* enable low: the hot bit drains out and never returns *)
  let outs = Seq_netlist.simulate ring (Array.make 6 [| false |]) in
  let last = outs.(5).(0) in
  Alcotest.(check bool) "drained" false last

let test_sgraph_basics () =
  let g = Sgraph.create 3 in
  Sgraph.add_edge g 0 1;
  Sgraph.add_edge g 1 2;
  Sgraph.add_edge g 2 0;
  Alcotest.(check (list int)) "succ" [ 1 ] (Sgraph.succ g 0);
  Alcotest.(check (list int)) "pred" [ 2 ] (Sgraph.pred g 0);
  Alcotest.(check bool) "edge" true (Sgraph.has_edge g 0 1);
  Alcotest.(check bool) "cyclic" false (Sgraph.is_acyclic g);
  Sgraph.delete g 1;
  Alcotest.(check bool) "acyclic after cut" true (Sgraph.is_acyclic g);
  Alcotest.(check (list int)) "alive" [ 0; 2 ] (Sgraph.alive_vertices g)

let test_sgraph_bypass_self_loop () =
  (* 0 → 1 → 0 with bypass of 1 creates a self-loop on 0 *)
  let g = Sgraph.create 2 in
  Sgraph.add_edge g 0 1;
  Sgraph.add_edge g 1 0;
  Sgraph.bypass g 1;
  Alcotest.(check bool) "self loop" true (Sgraph.has_edge g 0 0)

let test_sgraph_merge () =
  let g = Sgraph.create 3 in
  Sgraph.add_edge g 0 2;
  Sgraph.add_edge g 1 2;
  Sgraph.add_edge g 2 0;
  Sgraph.add_edge g 2 1;
  Sgraph.merge g ~into:0 1;
  Alcotest.(check int) "weight" 2 (Sgraph.weight g 0);
  Alcotest.(check (list int)) "members" [ 0; 1 ] (List.sort compare (Sgraph.members g 0));
  Alcotest.(check bool) "edges folded" true (Sgraph.has_edge g 0 2 && Sgraph.has_edge g 2 0)

let test_sgraph_of_ring () =
  let ring = Dpa_workload.Examples.ring_counter ~n:5 in
  let g = Sgraph.of_seq_netlist ring in
  Alcotest.(check int) "vertices" 5 (Sgraph.num_vertices g);
  (* single directed cycle 4→0→1→2→3→4 *)
  Alcotest.(check bool) "ring edge" true (Sgraph.has_edge g 4 0);
  Alcotest.(check bool) "chain edge" true (Sgraph.has_edge g 0 1);
  Alcotest.(check bool) "no reverse edge" false (Sgraph.has_edge g 1 0);
  let r = Mfvs.solve g in
  Alcotest.(check int) "mfvs of a ring is 1" 1 (List.length r.Mfvs.fvs)

let test_mfvs_self_loop_forced () =
  let g = Sgraph.create 2 in
  Sgraph.add_edge g 0 0;
  Sgraph.add_edge g 0 1;
  let forced = Mfvs.reduce g in
  Alcotest.(check (list int)) "self loop in fvs" [ 0 ] forced;
  Alcotest.(check bool) "graph empty" true (Sgraph.alive_vertices g = [])

let test_mfvs_fig9 () =
  let g = Dpa_workload.Examples.fig9_sgraph () in
  (* no plain reduction applies to the strongly connected graph *)
  let g' = Sgraph.copy g in
  let forced = Mfvs.reduce g' in
  Alcotest.(check (list int)) "unreducible" [] forced;
  Alcotest.(check int) "all alive" 5 (List.length (Sgraph.alive_vertices g'));
  (* symmetrization forms ABE (weight 3) and CD (weight 2) *)
  let groups = Mfvs.symmetrize g' in
  Alcotest.(check (list (list int))) "supervertices" [ [ 0; 1; 4 ]; [ 2; 3 ] ]
    (List.map (List.sort compare) groups);
  (* the full solve bypasses ABE and forces CD — FVS = {C, D} *)
  let r = Mfvs.solve g in
  Alcotest.(check (list int)) "fvs is CD" [ 2; 3 ] r.Mfvs.fvs;
  Alcotest.(check int) "no greedy picks" 0 r.Mfvs.greedy_picks;
  Alcotest.(check bool) "valid fvs" true (Mfvs.is_feedback_vertex_set g r.Mfvs.fvs)

let test_mfvs_without_symmetry_is_worse_on_fig9 () =
  let g = Dpa_workload.Examples.fig9_sgraph () in
  let with_sym = Mfvs.solve ~symmetry:true g in
  let without = Mfvs.solve ~symmetry:false g in
  Alcotest.(check bool) "both valid" true
    (Mfvs.is_feedback_vertex_set g with_sym.Mfvs.fvs
    && Mfvs.is_feedback_vertex_set g without.Mfvs.fvs);
  Alcotest.(check bool) "symmetry no worse" true
    (List.length with_sym.Mfvs.fvs <= List.length without.Mfvs.fvs)

(* random s-graph for property tests *)
let gen_sgraph =
  let open QCheck2.Gen in
  let* n = int_range 2 12 in
  let* edges = list_repeat (3 * n) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
  return (n, edges)

let build_sgraph (n, edges) =
  let g = Sgraph.create n in
  List.iter (fun (u, v) -> Sgraph.add_edge g u v) edges;
  g

let prop_mfvs_valid =
  Testkit.qcheck_case ~count:200 ~name:"mfvs result is a feedback vertex set"
    gen_sgraph
    (fun spec ->
      let g = build_sgraph spec in
      let r = Mfvs.solve g in
      Mfvs.is_feedback_vertex_set g r.Mfvs.fvs)

let prop_mfvs_valid_without_symmetry =
  Testkit.qcheck_case ~count:200 ~name:"mfvs valid without symmetry"
    gen_sgraph
    (fun spec ->
      let g = build_sgraph spec in
      let r = Mfvs.solve ~symmetry:false g in
      Mfvs.is_feedback_vertex_set g r.Mfvs.fvs)

let prop_reduce_preserves_validity =
  Testkit.qcheck_case ~count:200 ~name:"forced vertices plus remainder solve"
    gen_sgraph
    (fun spec ->
      let g = build_sgraph spec in
      let g' = Sgraph.copy g in
      let forced = Mfvs.reduce g' in
      (* forced vertices plus an FVS of the reduced graph covers the original *)
      let rest = Mfvs.solve g' in
      Mfvs.is_feedback_vertex_set g (forced @ rest.Mfvs.fvs))

let test_banked_ring_supervertices () =
  let sn = Dpa_workload.Examples.replicated_bank_ring ~banks:4 ~width:3 in
  let g = Sgraph.of_seq_netlist sn in
  let r = Mfvs.solve g in
  (* each bank collapses into one supervertex of weight 3 *)
  Alcotest.(check int) "four supervertices" 4 (List.length r.Mfvs.supervertices);
  List.iter
    (fun group -> Alcotest.(check int) "bank width" 3 (List.length group))
    r.Mfvs.supervertices;
  (* cutting one whole bank breaks the ring *)
  Alcotest.(check int) "one bank cut" 3 (List.length r.Mfvs.fvs);
  Alcotest.(check bool) "valid" true (Mfvs.is_feedback_vertex_set g r.Mfvs.fvs);
  (* the supervertex path needs no greedy scatter *)
  Alcotest.(check int) "pure reductions" 0 r.Mfvs.greedy_picks

let test_banked_ring_validation () =
  Alcotest.check_raises "bad params"
    (Invalid_argument "Examples.replicated_bank_ring: need banks >= 2 and width >= 1")
    (fun () -> ignore (Dpa_workload.Examples.replicated_bank_ring ~banks:1 ~width:2))

module Exact = Dpa_seq.Exact_mfvs

let test_exact_fig9 () =
  let g = Dpa_workload.Examples.fig9_sgraph () in
  match Exact.solve g with
  | None -> Alcotest.fail "exact solver gave up"
  | Some r ->
    Alcotest.(check int) "optimal weight" 2 r.Exact.weight;
    Alcotest.(check (list int)) "optimal set" [ 2; 3 ] r.Exact.fvs;
    Alcotest.(check bool) "valid" true (Mfvs.is_feedback_vertex_set g r.Exact.fvs)

let test_exact_ring () =
  let ring = Dpa_workload.Examples.ring_counter ~n:6 in
  let g = Sgraph.of_seq_netlist ring in
  match Exact.solve g with
  | None -> Alcotest.fail "exact solver gave up"
  | Some r -> Alcotest.(check int) "ring optimum" 1 r.Exact.weight

let test_exact_acyclic () =
  let g = Sgraph.create 4 in
  Sgraph.add_edge g 0 1;
  Sgraph.add_edge g 1 2;
  match Exact.solve g with
  | None -> Alcotest.fail "exact solver gave up"
  | Some r -> Alcotest.(check int) "empty optimum" 0 r.Exact.weight

let test_exact_node_limit () =
  let g = Dpa_workload.Examples.fig9_sgraph () in
  Alcotest.(check bool) "tiny limit gives up" true (Exact.solve ~node_limit:1 g = None)

(* property: the heuristic never beats the optimum, and the optimum is a
   valid FVS *)
let prop_heuristic_vs_exact =
  Testkit.qcheck_case ~count:120 ~name:"heuristic ≥ exact and exact valid"
    gen_sgraph
    (fun spec ->
      let g = build_sgraph spec in
      match Exact.solve g with
      | None -> true (* search budget exceeded: nothing to check *)
      | Some exact ->
        let heuristic = Mfvs.solve g in
        Mfvs.is_feedback_vertex_set g exact.Exact.fvs
        && List.length heuristic.Mfvs.fvs >= exact.Exact.weight)

let test_unroll_matches_simulation () =
  let ring = Dpa_workload.Examples.ring_counter ~n:3 in
  let cycles = 5 in
  let unrolled = Seq_netlist.unroll ~cycles ring in
  Alcotest.(check int) "inputs" cycles (Netlist.num_inputs unrolled);
  Alcotest.(check int) "outputs" cycles (Netlist.num_outputs unrolled);
  (* all 32 enable sequences: unrolled evaluation = cycle simulation *)
  for m = 0 to 31 do
    let seq_inputs = Array.init cycles (fun t -> [| (m lsr t) land 1 = 1 |]) in
    let simulated = Seq_netlist.simulate ring seq_inputs in
    let flat = Array.init cycles (fun t -> (m lsr t) land 1 = 1) in
    let unrolled_outs = Dpa_logic.Eval.outputs unrolled flat in
    Array.iteri
      (fun t o ->
        Alcotest.(check bool) (Printf.sprintf "m=%d cycle %d" m t) o.(0) unrolled_outs.(t))
      simulated
  done

let test_unroll_validation () =
  let ring = Dpa_workload.Examples.ring_counter ~n:3 in
  Alcotest.check_raises "cycles >= 1"
    (Invalid_argument "Seq_netlist.unroll: need at least one cycle") (fun () ->
      ignore (Seq_netlist.unroll ~cycles:0 ring))

(* property: unrolled netlist equals simulation on random sequential
   circuits and random input streams *)
let prop_unroll_equals_simulate =
  Testkit.qcheck_case ~count:30 ~name:"unroll equals simulation"
    QCheck2.Gen.(pair (int_bound 500) (int_range 1 4))
    (fun (seed, cycles) ->
      let sn =
        Dpa_workload.Generator.sequential
          { Dpa_workload.Generator.default with
            Dpa_workload.Generator.seed;
            n_inputs = 4;
            n_outputs = 2;
            gates_per_output = 5;
            support = 3 }
          ~n_ffs:3
      in
      let unrolled = Seq_netlist.unroll ~cycles sn in
      let rng = Dpa_util.Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 10 do
        let stream =
          Array.init cycles (fun _ -> Array.init 4 (fun _ -> Dpa_util.Rng.bool rng))
        in
        let simulated = Seq_netlist.simulate sn stream in
        let flat = Array.concat (Array.to_list stream) in
        let outs = Dpa_logic.Eval.outputs unrolled flat in
        Array.iteri
          (fun t frame ->
            Array.iteri (fun k v -> if outs.((t * 2) + k) <> v then ok := false) frame)
          simulated
      done;
      !ok)

module Steady = Dpa_seq.Steady_state

let test_steady_state_ring () =
  (* one-hot ring with enable stuck high: the lazy chain converges on the
     uniform distribution over the n rotations — P(Q)=1/n per stage *)
  let ring = Dpa_workload.Examples.ring_counter ~n:4 in
  let r = Steady.analyze ~input_probs:[| 1.0 |] ring in
  Array.iter (fun p -> Testkit.check_approx ~eps:1e-6 "1/4 per stage" 0.25 p) r.Steady.ff_probs;
  (* exactly the four one-hot states carry probability *)
  let live = Array.to_list r.Steady.state_probs |> List.filter (fun p -> p > 1e-9) in
  Alcotest.(check int) "four live states" 4 (List.length live)

let test_steady_state_ring_drains () =
  (* with a sometimes-low enable, the token eventually dies at the wrap:
     the all-zero state is absorbing *)
  let ring = Dpa_workload.Examples.ring_counter ~n:3 in
  let r = Steady.analyze ~input_probs:[| 0.7 |] ring in
  Testkit.check_approx ~eps:1e-6 "absorbed" 1.0 r.Steady.state_probs.(0);
  Array.iter (fun p -> Testkit.check_approx ~eps:1e-6 "drained" 0.0 p) r.Steady.ff_probs

let test_steady_state_fig7_matches_partition () =
  (* on the fig7 circuit the partition estimate is exact *)
  let sn = Dpa_workload.Examples.fig7_sequential () in
  let exact = Steady.analyze ~input_probs:[| 0.5 |] sn in
  let approx = Partition.probabilities ~input_probs:[| 0.5 |] sn in
  Array.iteri
    (fun k p -> Testkit.check_approx ~eps:1e-6 (Printf.sprintf "ff%d" k) p
        approx.Partition.ff_probs.(k))
    exact.Steady.ff_probs;
  Testkit.check_approx ~eps:1e-6 "q1 is 1/2" 0.5 exact.Steady.ff_probs.(1)

let test_steady_state_validation () =
  let sn = Dpa_workload.Examples.ring_counter ~n:3 in
  Alcotest.check_raises "wrong probs"
    (Invalid_argument "Steady_state.analyze: input_probs length mismatch") (fun () ->
      ignore (Steady.analyze ~input_probs:[| 0.5; 0.5 |] sn))

(* property: steady-state marginals and node probabilities are valid
   probabilities and the state distribution sums to one *)
let prop_steady_state_valid =
  Testkit.qcheck_case ~count:20 ~name:"steady state is a distribution"
    QCheck2.Gen.(int_bound 500)
    (fun seed ->
      let sn =
        Dpa_workload.Generator.sequential
          { Dpa_workload.Generator.default with
            Dpa_workload.Generator.seed;
            n_inputs = 5;
            n_outputs = 2;
            gates_per_output = 5;
            support = 4 }
          ~n_ffs:4
      in
      let r = Steady.analyze ~input_probs:(Array.make 5 0.5) sn in
      let total = Array.fold_left ( +. ) 0.0 r.Steady.state_probs in
      Float.abs (total -. 1.0) < 1e-6
      && Array.for_all (fun p -> p >= -1e-9 && p <= 1.0 +. 1e-9) r.Steady.ff_probs
      && Array.for_all (fun p -> p >= -1e-9 && p <= 1.0 +. 1e-9) r.Steady.node_probs)

let test_fig7_partition () =
  let sn = Dpa_workload.Examples.fig7_sequential () in
  let g = Sgraph.of_seq_netlist sn in
  (* FF1 lies on both cycles (0↔1 and 1↔2) *)
  Alcotest.(check bool) "cyclic" false (Sgraph.is_acyclic g);
  let r = Mfvs.solve g in
  Alcotest.(check (list int)) "cut ff1 only" [ 1 ] r.Mfvs.fvs

let test_partition_probabilities () =
  let sn = Dpa_workload.Examples.fig7_sequential () in
  let r = Partition.probabilities ~input_probs:[| 0.5 |] sn in
  Alcotest.(check (list int)) "fvs" [ 1 ] r.Partition.fvs;
  (* cut flip-flop q1 keeps the 0.5 assumption... its Q probability is the
     seeded cut probability *)
  Testkit.check_approx "q1 cut prob" 0.5 r.Partition.ff_probs.(1);
  (* ff0's D = q1 ∧ x: exact propagation gives 0.25 *)
  Testkit.check_approx "ff0 prob" 0.25 r.Partition.ff_probs.(0);
  Testkit.check_approx "ff2 prob" 0.25 r.Partition.ff_probs.(2);
  (* every node probability is a probability *)
  Array.iter
    (fun p -> Alcotest.(check bool) "in range" true (p >= 0.0 && p <= 1.0))
    r.Partition.node_probs

let test_partition_refinement_converges_ring () =
  (* in the enabled ring, steady-state hot probability is 1/n per stage;
     refinement pulls the cut flip-flop away from the 0.5 seed *)
  let ring = Dpa_workload.Examples.ring_counter ~n:4 in
  let r0 = Partition.probabilities ~input_probs:[| 1.0 |] ring in
  let r8 = Partition.probabilities ~refine:16 ~input_probs:[| 1.0 |] ring in
  Alcotest.(check int) "refinement ran" 16 r8.Partition.iterations;
  (* with enable stuck high the loop is a pure rotation: the cut FF's
     refined probability equals the seed propagated around the cycle *)
  Alcotest.(check bool) "refined prob in range" true
    (Array.for_all (fun p -> p >= 0.0 && p <= 1.0) r8.Partition.ff_probs);
  ignore r0

let test_partition_cut_prob_override () =
  let sn = Dpa_workload.Examples.fig7_sequential () in
  let r = Partition.probabilities ~cut_prob:0.9 ~input_probs:[| 0.5 |] sn in
  Testkit.check_approx "seeded cut prob" 0.9 r.Partition.ff_probs.(1);
  Testkit.check_approx "ff0 follows" 0.45 r.Partition.ff_probs.(0)

(* [node_probs] comes from one memo over every root; it must equal each
   root priced alone, bit for bit, under the final pseudo-input
   probabilities (real inputs, then each flip-flop's steady Q) *)
let test_partition_node_probs_shared_memo () =
  let seq_controller () =
    match
      Dpa_logic.Blif.sequential_of_string (Testkit.read_file "../data/seq_controller.blif")
    with
    | Ok parsed -> Seq_netlist.of_blif parsed
    | Error msg -> Alcotest.failf "seq_controller: %s" msg
  in
  let ctrl_smoke () =
    match Dpa_workload.Profiles.find "ctrl_smoke" with
    | Some p -> (
      match Dpa_workload.Profiles.build p with
      | Dpa_workload.Profiles.Seq sn -> sn
      | Dpa_workload.Profiles.Comb _ -> Alcotest.fail "ctrl_smoke is sequential")
    | None -> Alcotest.fail "no ctrl_smoke profile"
  in
  List.iter
    (fun (name, sn) ->
      List.iter
        (fun p ->
          let n_real = Seq_netlist.n_real_inputs sn in
          let input_probs = Array.make n_real p in
          let r = Partition.probabilities ~refine:2 ~input_probs sn in
          let b = Dpa_bdd.Build.of_netlist (Seq_netlist.comb sn) in
          let level_probs =
            Array.map
              (fun pos -> if pos < n_real then input_probs.(pos) else r.Partition.ff_probs.(pos - n_real))
              (Dpa_bdd.Build.order b)
          in
          Testkit.check_bits_array
            (Printf.sprintf "%s at p = %g" name p)
            (Array.map (Dpa_bdd.Robdd.probability (Dpa_bdd.Build.manager b) level_probs)
               (Dpa_bdd.Build.roots b))
            r.Partition.node_probs)
        [ 0.5; 0.7 ])
    [ ("seq_controller", seq_controller ()); ("ctrl_smoke", ctrl_smoke ()) ]

let suite =
  [ Alcotest.test_case "seq netlist validation" `Quick test_seq_netlist_validation;
    Alcotest.test_case "ring simulation" `Quick test_ring_counter_simulation;
    Alcotest.test_case "ring disabled" `Quick test_ring_counter_disabled;
    Alcotest.test_case "sgraph basics" `Quick test_sgraph_basics;
    Alcotest.test_case "sgraph bypass self-loop" `Quick test_sgraph_bypass_self_loop;
    Alcotest.test_case "sgraph merge" `Quick test_sgraph_merge;
    Alcotest.test_case "sgraph of ring" `Quick test_sgraph_of_ring;
    Alcotest.test_case "mfvs self loop" `Quick test_mfvs_self_loop_forced;
    Alcotest.test_case "mfvs fig9" `Quick test_mfvs_fig9;
    Alcotest.test_case "mfvs symmetry helps" `Quick test_mfvs_without_symmetry_is_worse_on_fig9;
    Alcotest.test_case "exact mfvs fig9" `Quick test_exact_fig9;
    Alcotest.test_case "exact mfvs ring" `Quick test_exact_ring;
    Alcotest.test_case "exact mfvs acyclic" `Quick test_exact_acyclic;
    Alcotest.test_case "exact mfvs node limit" `Quick test_exact_node_limit;
    prop_heuristic_vs_exact;
    Alcotest.test_case "banked ring supervertices" `Quick test_banked_ring_supervertices;
    Alcotest.test_case "banked ring validation" `Quick test_banked_ring_validation;
    Alcotest.test_case "unroll matches simulation" `Quick test_unroll_matches_simulation;
    Alcotest.test_case "unroll validation" `Quick test_unroll_validation;
    prop_unroll_equals_simulate;
    Alcotest.test_case "steady state ring" `Quick test_steady_state_ring;
    Alcotest.test_case "steady state drain" `Quick test_steady_state_ring_drains;
    Alcotest.test_case "steady state fig7" `Quick test_steady_state_fig7_matches_partition;
    Alcotest.test_case "steady state validation" `Quick test_steady_state_validation;
    prop_steady_state_valid;
    Alcotest.test_case "fig7 partition" `Quick test_fig7_partition;
    Alcotest.test_case "partition probabilities" `Quick test_partition_probabilities;
    Alcotest.test_case "partition refinement" `Quick test_partition_refinement_converges_ring;
    Alcotest.test_case "partition cut prob" `Quick test_partition_cut_prob_override;
    Alcotest.test_case "partition node probs, one memo" `Quick
      test_partition_node_probs_shared_memo;
    prop_mfvs_valid;
    prop_mfvs_valid_without_symmetry;
    prop_reduce_preserves_validity ]
