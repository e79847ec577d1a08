(* The shared work-stealing domain pool and the parallel-identity
   property: everything the pool touches — budgeted shard builds, the
   budgeted searches that spread each candidate's shards, exhaustive
   search's prefetch — must be bit-identical at every jobs count and
   without a pool. Floats are compared through [Int64.bits_of_float]:
   "close" is not good enough here. *)

module Par = Dpa_util.Par
module Engine = Dpa_power.Engine
module Optimizer = Dpa_phase.Optimizer

let load_blif = Testkit.load_blif

let data_files = Testkit.data_files

(* ---- the pool itself ---------------------------------------------- *)

let test_map_ordered () =
  Par.with_pool ~jobs:4 @@ fun pool ->
  let r = Par.map pool 1000 (fun i -> i * i) in
  Alcotest.(check int) "length" 1000 (Array.length r);
  Array.iteri (fun i v -> Alcotest.(check int) "slot" (i * i) v) r

let test_map_empty_and_single () =
  Par.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.(check int) "empty" 0 (Array.length (Par.map pool 0 (fun i -> i)));
  Alcotest.(check (array int)) "single" [| 7 |] (Par.map pool 1 (fun _ -> 7))

let test_jobs1_inline_matches () =
  let with_jobs j =
    Par.with_pool ~jobs:j @@ fun pool -> Par.map pool 100 (fun i -> (i * 37) mod 11)
  in
  Alcotest.(check (array int)) "jobs 1 = jobs 4" (with_jobs 1) (with_jobs 4)

exception Boom of int

let test_exception_lowest_index () =
  Par.with_pool ~jobs:4 @@ fun pool ->
  let saw =
    try
      ignore (Par.map pool 100 (fun i -> if i = 37 || i = 53 then raise (Boom i) else i));
      None
    with Boom i -> Some i
  in
  (* the lowest failing index wins, deterministically *)
  Alcotest.(check (option int)) "lowest failure" (Some 37) saw;
  (* even when a higher failure lands first: slow tasks below 50 put
     index 53's failure ahead of index 37's on any schedule where two
     domains run *)
  let spin () =
    let x = ref 0 in
    for k = 1 to 2_000_000 do
      x := Sys.opaque_identity (!x + k)
    done
  in
  let saw =
    try
      ignore
        (Par.map pool 100 (fun i ->
             if i < 50 then spin ();
             if i = 37 || i = 53 then raise (Boom i) else i));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest failure behind a faster one" (Some 37) saw;
  (* the pool survives a failed region *)
  let r = Par.map pool 8 (fun i -> i + 1) in
  Alcotest.(check int) "pool alive after failure" 8 r.(7)

let test_nested_use_rejected () =
  Par.with_pool ~jobs:2 @@ fun pool ->
  let rejected =
    try
      ignore (Par.map pool 4 (fun _ -> Array.length (Par.map pool 2 (fun i -> i))));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nested map raises Invalid_argument" true rejected;
  Alcotest.(check int) "pool alive after rejection" 3 (Par.map pool 4 Fun.id).(3)

let test_create_bounds () =
  let invalid jobs =
    try
      Par.shutdown (Par.create ~jobs);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "jobs 0 rejected" true (invalid 0);
  Alcotest.(check bool) "jobs 127 rejected" true (invalid 127)

let test_shutdown_idempotent () =
  let pool = Par.create ~jobs:3 in
  Alcotest.(check int) "works" 5 (Par.map pool 6 Fun.id).(5);
  Par.shutdown pool;
  Par.shutdown pool

let test_stats_count_tasks () =
  Par.with_pool ~jobs:2 @@ fun pool ->
  let before = (Par.stats pool).Par.tasks in
  ignore (Par.map pool 50 Fun.id);
  let after = (Par.stats pool).Par.tasks in
  Alcotest.(check int) "50 tasks accounted" 50 (after - before)

(* ---- parallel identity: estimation -------------------------------- *)

let mapped_of path =
  let net = Dpa_synth.Opt.optimize (load_blif path) in
  let n = Dpa_logic.Netlist.num_outputs net in
  let input_probs = Array.make (Dpa_logic.Netlist.num_inputs net) 0.5 in
  ( Dpa_domino.Mapped.map
      (Dpa_synth.Inverterless.realize net (Dpa_synth.Phase.all_positive n)),
    input_probs )

let check_reports_equal msg (a : Engine.result) (b : Engine.result) =
  let ra = a.Engine.report and rb = b.Engine.report in
  Testkit.check_bits (msg ^ " total") ra.Dpa_power.Estimate.total rb.Dpa_power.Estimate.total;
  Testkit.check_bits (msg ^ " domino")
    ra.Dpa_power.Estimate.domino_power rb.Dpa_power.Estimate.domino_power;
  Testkit.check_bits_array (msg ^ " node_probs")
    ra.Dpa_power.Estimate.node_probs rb.Dpa_power.Estimate.node_probs;
  Alcotest.(check int)
    (msg ^ " bdd_nodes")
    ra.Dpa_power.Estimate.bdd_nodes rb.Dpa_power.Estimate.bdd_nodes;
  Alcotest.(check string)
    (msg ^ " degradation")
    (Engine.degradation_to_string a.Engine.degradation)
    (Engine.degradation_to_string b.Engine.degradation)

(* One estimation path: the estimate without a pool is the reference,
   and every pool width must reproduce it bit for bit — probabilities,
   powers, bdd_nodes and the degradation report alike — on the pool's
   first estimate and again on a second one in the same pool. *)
let check_pool_identity ?budget label =
  List.iter
    (fun path ->
      let mapped, input_probs = mapped_of path in
      let no_pool = Engine.estimate ?budget ~input_probs mapped in
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs @@ fun pool ->
          List.iter
            (fun run ->
              let pooled = Engine.estimate ~par:pool ?budget ~input_probs mapped in
              check_reports_equal
                (Printf.sprintf "%s %s no pool vs jobs %d, run %d" path label jobs run)
                no_pool pooled)
            [ 1; 2 ])
        [ 1; 2; 4 ])
    data_files

let test_estimate_identity_across_jobs () = check_pool_identity "unbudgeted"

let test_budgeted_estimate_identity_across_jobs () =
  (* a tight node cap forces the retry rung (on apex7, 15 cones at 200
     nodes), a tighter one simulation too (19 cones at 60); a cap no cone
     reaches keeps every cone exact, yet only a budgeted estimate fans its
     shards across the pool *)
  check_pool_identity ~budget:(Engine.bounded ~max_bdd_nodes:200 ()) "budgeted";
  check_pool_identity ~budget:(Engine.bounded ~max_bdd_nodes:60 ()) "budgeted, simulating";
  check_pool_identity ~budget:(Engine.bounded ~max_bdd_nodes:1_000_000 ()) "uncapped budget"

(* ---- parallel identity: the phase search -------------------------- *)

let check_opt_equal msg (a : Optimizer.result) (b : Optimizer.result) =
  Alcotest.(check string)
    (msg ^ " assignment")
    (Dpa_synth.Phase.to_string a.Optimizer.assignment)
    (Dpa_synth.Phase.to_string b.Optimizer.assignment);
  Testkit.check_bits (msg ^ " power") a.Optimizer.power b.Optimizer.power;
  Alcotest.(check int) (msg ^ " size") a.Optimizer.size b.Optimizer.size;
  Alcotest.(check int) (msg ^ " measurements") a.Optimizer.measurements b.Optimizer.measurements;
  Alcotest.(check string) (msg ^ " strategy") a.Optimizer.strategy_used b.Optimizer.strategy_used

(* Every identity leg also runs at p = 0.7: at 0.5 every probability is
   a dyadic rational and most float sums are exact, so a reassociated
   sum would pass unseen. *)
let identity_probs = [ 0.5; 0.7 ]

(* Only the bounded engine prices on the pool: an unbudgeted candidate
   is a slot-table sum on the calling domain. So every search leg runs
   unbudgeted and again under a 200-node cap, where the ladder's lower
   rungs price some cones. [capped_pair_limit] bounds the capped leg's
   greedy candidate set: on apex7 at p = 0.7, 40 pairs take 16 capped
   measurements, commits and rejections both, where all 630 take 140. *)
let search_cap = Engine.bounded ~max_bdd_nodes:200 ()

let optimize_identity ?capped_pair_limit ~strategy path =
  let net = Dpa_synth.Opt.optimize (load_blif path) in
  List.iter
    (fun (label, budget, pair_limit) ->
      List.iter
        (fun p ->
          let input_probs = Array.make (Dpa_logic.Netlist.num_inputs net) p in
          let base = Optimizer.default_config ~input_probs in
          let run par =
            Optimizer.minimize_power
              { base with Optimizer.strategy; budget; pair_limit; par }
              net
          in
          let seq = run None in
          List.iter
            (fun jobs ->
              let r = Par.with_pool ~jobs (fun pool -> run (Some pool)) in
              check_opt_equal (Printf.sprintf "%s %s p=%g jobs %d" path label p jobs) seq r)
            [ 1; 2; 4 ])
        identity_probs)
    [ ("unbudgeted", None, None); ("budgeted", Some search_cap, capped_pair_limit) ]

let test_optimize_identity_greedy () =
  (* apex7 has 36 outputs: the greedy path, whose budgeted leg spreads
     each candidate's shards across the pool *)
  optimize_identity ~capped_pair_limit:40 ~strategy:Optimizer.Greedy
    "../data/apex7_synthetic.blif"

let test_optimize_identity_exhaustive () =
  List.iter
    (optimize_identity ~strategy:Optimizer.Auto)
    [ "../data/frg1_synthetic.blif"; "../data/seq_controller.blif" ]

(* The identity legs stay green if a budgeted search ignores its pool,
   so check that the pool is really used: greedy spreads each
   candidate's shards (the pool runs tasks, nothing is prefetched), and
   exhaustive search prices its whole enumeration across the pool. *)
let test_budgeted_search_uses_pool () =
  let prefetched = Dpa_obs.Metrics.counter "phase.measure.prefetched" in
  let search ?pair_limit ~strategy path =
    let net = Dpa_synth.Opt.optimize (load_blif path) in
    let input_probs = Array.make (Dpa_logic.Netlist.num_inputs net) 0.5 in
    let config =
      {
        (Optimizer.default_config ~input_probs) with
        Optimizer.strategy;
        pair_limit;
        budget = Some search_cap;
      }
    in
    let no_pool = Optimizer.minimize_power config net in
    Par.with_pool ~jobs:2 @@ fun pool ->
    let tasks = (Par.stats pool).Par.tasks in
    let before = Dpa_obs.Metrics.counter_value prefetched in
    let pooled = Optimizer.minimize_power { config with Optimizer.par = Some pool } net in
    check_opt_equal (path ^ " pool vs no pool") no_pool pooled;
    ( (Par.stats pool).Par.tasks - tasks,
      Dpa_obs.Metrics.counter_value prefetched - before )
  in
  let tasks, fetched =
    search ~pair_limit:40 ~strategy:Optimizer.Greedy "../data/apex7_synthetic.blif"
  in
  Alcotest.(check bool) "greedy runs shard tasks on the pool" true (tasks > 0);
  Alcotest.(check int) "greedy prices nothing ahead" 0 fetched;
  let _, fetched = search ~strategy:Optimizer.Auto "../data/frg1_synthetic.blif" in
  Alcotest.(check int) "exhaustive prefetches all 2^3 candidates" 8 fetched

let test_full_flow_identity () =
  (* the whole compare flow (MA + MP + final pricing) through Flow.config,
     unbudgeted and budgeted: under a budget the final prices come from
     pooled estimates and the search's pool-free entries *)
  let module Flow = Dpa_core.Flow in
  let check_same what (seq : Flow.result) (par : Flow.result) =
    Testkit.check_bits (what ^ " mp power") seq.Flow.mp.Flow.power par.Flow.mp.Flow.power;
    Testkit.check_bits (what ^ " ma power") seq.Flow.ma.Flow.power par.Flow.ma.Flow.power;
    Alcotest.(check string)
      (what ^ " mp phases")
      (Dpa_synth.Phase.to_string seq.Flow.mp.Flow.assignment)
      (Dpa_synth.Phase.to_string par.Flow.mp.Flow.assignment);
    Alcotest.(check int) (what ^ " mp size") seq.Flow.mp.Flow.size par.Flow.mp.Flow.size;
    Alcotest.(check int)
      (what ^ " measurements")
      seq.Flow.mp.Flow.measurements par.Flow.mp.Flow.measurements;
    Alcotest.(check int)
      (what ^ " degraded measurements")
      seq.Flow.mp.Flow.degraded_measurements par.Flow.mp.Flow.degraded_measurements;
    List.iter
      (fun (side, (s : Flow.realization), (p : Flow.realization)) ->
        Alcotest.(check string)
          (Printf.sprintf "%s %s degradation" what side)
          (Engine.degradation_label s.Flow.degradation)
          (Engine.degradation_label p.Flow.degradation))
      [ ("ma", seq.Flow.ma, par.Flow.ma); ("mp", seq.Flow.mp, par.Flow.mp) ]
  in
  List.iter
    (fun path ->
      let net = load_blif path in
      List.iter
        (fun input_prob ->
          let run ?budget par =
            Flow.compare_ma_mp
              ~config:{ Flow.default_config with Flow.par; budget; input_prob }
              net
          in
          let what = Printf.sprintf "%s p=%g" path input_prob in
          check_same what (run None) (Par.with_pool ~jobs:4 (fun pool -> run (Some pool)));
          let budget = Engine.bounded ~max_bdd_nodes:50 () in
          let seq = run ~budget None in
          List.iter
            (fun jobs ->
              check_same
                (Printf.sprintf "%s budgeted, jobs %d" what jobs)
                seq
                (Par.with_pool ~jobs (fun pool -> run ~budget (Some pool))))
            [ 1; 4 ])
        identity_probs)
    data_files

let suite =
  [
    Alcotest.test_case "map ordered results" `Quick test_map_ordered;
    Alcotest.test_case "map empty and single" `Quick test_map_empty_and_single;
    Alcotest.test_case "exception: lowest index wins" `Quick test_exception_lowest_index;
    Alcotest.test_case "jobs 1 inline matches" `Quick test_jobs1_inline_matches;
    Alcotest.test_case "nested use rejected" `Quick test_nested_use_rejected;
    Alcotest.test_case "create bounds" `Quick test_create_bounds;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "stats count tasks" `Quick test_stats_count_tasks;
    Alcotest.test_case "estimate identity across jobs" `Quick
      test_estimate_identity_across_jobs;
    Alcotest.test_case "budgeted estimate identity" `Quick
      test_budgeted_estimate_identity_across_jobs;
    Alcotest.test_case "optimize identity (greedy apex7)" `Quick
      test_optimize_identity_greedy;
    Alcotest.test_case "optimize identity (exhaustive)" `Quick
      test_optimize_identity_exhaustive;
    Alcotest.test_case "budgeted search uses the pool" `Quick test_budgeted_search_uses_pool;
    Alcotest.test_case "full flow identity" `Quick test_full_flow_identity;
  ]
