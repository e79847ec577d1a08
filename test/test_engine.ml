(* The resource-bounded estimation engine: typed budget exhaustion, the
   exact → retry → simulate degradation ladder, and the malformed-BLIF
   corpus (every bad input must yield a structured Error, never an
   uncaught exception). *)

module Engine = Dpa_power.Engine
module Estimate = Dpa_power.Estimate
module Flow = Dpa_core.Flow
module Netlist = Dpa_logic.Netlist
module Dpa_error = Dpa_util.Dpa_error
module Build = Dpa_bdd.Build
module Robdd = Dpa_bdd.Robdd
module Bitset = Dpa_util.Bitset

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_blif path =
  match Dpa_logic.Blif.of_string (read_file path) with
  | Ok net -> net
  | Error msg -> Alcotest.failf "%s failed to parse: %s" path msg

(* A sequential design's combinational core (latch outputs become PIs). *)
let load_blif_core path =
  match Dpa_logic.Blif.sequential_of_string (read_file path) with
  | Ok s -> s.Dpa_logic.Blif.comb
  | Error msg -> Alcotest.failf "%s failed to parse: %s" path msg

let fig5_mapped () =
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  Dpa_domino.Mapped.map
    (Dpa_synth.Inverterless.realize net (Dpa_synth.Phase.all_positive 2))

(* ---- typed budget exhaustion -------------------------------------- *)

let test_budget_exceeded_is_typed () =
  let mapped = fig5_mapped () in
  let input_probs = Array.make 4 0.5 in
  let order = Estimate.block_order ~input_probs mapped in
  let b = Estimate.start_build ~order mapped in
  Dpa_bdd.Robdd.set_budget ~max_nodes:3 (Dpa_bdd.Build.manager b);
  (match Dpa_bdd.Build.build b ~within:(fun _ -> true) with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Dpa_error.Budget_exceeded r ->
    Alcotest.(check bool) "nodes resource" true (r.Dpa_error.resource = Dpa_error.Bdd_nodes)
  | exception _ -> Alcotest.fail "wrong exception type");
  (* the manager survives exhaustion: lifting the budget lets the same
     build resume and finish *)
  Dpa_bdd.Robdd.clear_budget (Dpa_bdd.Build.manager b);
  Dpa_bdd.Build.build b ~within:(fun _ -> true);
  let probs = Dpa_bdd.Build.node_probabilities b ~input_probs in
  Alcotest.(check bool) "all probabilities defined" true
    (Array.for_all (fun p -> not (Float.is_nan p)) probs)

let test_fallback_none_raises_budget_error () =
  let mapped = fig5_mapped () in
  let budget = Engine.bounded ~max_bdd_nodes:2 ~fallback:Engine.No_fallback () in
  match Engine.estimate ~budget ~input_probs:(Array.make 4 0.5) mapped with
  | _ -> Alcotest.fail "expected Dpa_error.Error"
  | exception Dpa_error.Error (Dpa_error.Budget _) -> ()
  | exception _ -> Alcotest.fail "wrong exception type"

(* ---- the ladder on data/ circuits --------------------------------- *)

let ladder_on_blif ?(sequential = false) path =
  let raw = if sequential then load_blif_core path else load_blif path in
  let net = Dpa_synth.Opt.optimize raw in
  let input_probs = Array.make (Netlist.num_inputs net) 0.5 in
  let mapped =
    Dpa_domino.Mapped.map
      (Dpa_synth.Inverterless.realize net
         (Dpa_synth.Phase.all_positive (Netlist.num_outputs net)))
  in
  let exact = Estimate.of_mapped ~input_probs mapped in
  (* a cap well under the exact build forces the ladder *)
  let max_nodes = max 2 (exact.Estimate.bdd_nodes / 4) in
  let budget = Engine.bounded ~max_bdd_nodes:max_nodes () in
  let r = Engine.estimate ~budget ~input_probs mapped in
  let d = r.Engine.degradation in
  Alcotest.(check bool) "some cones degraded" true (not (Engine.all_exact d));
  Alcotest.(check bool) "every cone accounted for" true
    (Engine.exact_cones d + Engine.reordered_cones d + Engine.simulated_cones d
    = Netlist.num_outputs net);
  Alcotest.(check bool) "node budget respected" true (d.Engine.bdd_nodes <= max_nodes);
  (* simulated probabilities carry ±ci_halfwidth each; the total is a sum
     over the block's cells, so bound the error additively *)
  let tolerance =
    Float.max 0.5 (d.Engine.ci_halfwidth *. 4.0 *. float_of_int (Dpa_domino.Mapped.size mapped))
  in
  Alcotest.(check bool)
    (Printf.sprintf "budgeted %.4f within %.3f of exact %.4f" r.Engine.report.Estimate.total
       tolerance exact.Estimate.total)
    true
    (Float.abs (r.Engine.report.Estimate.total -. exact.Estimate.total) < tolerance)

let test_ladder_frg1 () = ladder_on_blif "../data/frg1_synthetic.blif"

let test_ladder_seq_controller () =
  ladder_on_blif ~sequential:true "../data/seq_controller.blif"

let test_deadline_budget () =
  let mapped = fig5_mapped () in
  let input_probs = Array.make 4 0.5 in
  (* an already-expired deadline degrades everything to simulation, yet
     the estimate still completes with a report *)
  let budget = Engine.bounded ~deadline_s:0.0 () in
  let r = Engine.estimate ~budget ~input_probs mapped in
  Alcotest.(check bool) "completed with a total" true (r.Engine.report.Estimate.total > 0.0)

(* ---- budgeted flow: greedy stays consistent under fallback -------- *)

let test_budgeted_flow_matches_unbudgeted () =
  let net = load_blif "../data/frg1_synthetic.blif" in
  let exact_r = Flow.compare_ma_mp net in
  let budget =
    Engine.bounded
      ~max_bdd_nodes:(max 2 (exact_r.Flow.mp.Flow.degradation.Engine.bdd_nodes / 2))
      ()
  in
  let config = { Flow.default_config with Flow.budget = Some budget } in
  let r = Flow.compare_ma_mp ~config net in
  (* the ladder completed: every realization priced, degradation recorded *)
  Alcotest.(check bool) "flow degraded somewhere" true (Dpa_core.Report.degraded r);
  let ci = Float.max 0.01 r.Flow.mp.Flow.degradation.Engine.ci_halfwidth in
  let tolerance = Float.max 0.5 (ci *. 4.0 *. float_of_int r.Flow.mp.Flow.size) in
  Alcotest.(check bool)
    (Printf.sprintf "budgeted MP %.4f within %.3f of exact MP %.4f" r.Flow.mp.Flow.power
       tolerance exact_r.Flow.mp.Flow.power)
    true
    (Float.abs (r.Flow.mp.Flow.power -. exact_r.Flow.mp.Flow.power) < tolerance)

(* ---- budgeted phase search: deadline and cancellation ------------- *)

(* A budgeted greedy search reads its base probabilities off its own
   all-positive estimate, so the budget's deadline and the caller's
   token reach them through the block ladder, like every candidate's
   price. *)
let test_budgeted_search_deadline () =
  (* an expired deadline stops every cone build that outlives one
     deadline poll; the search still finishes, on simulated prices *)
  let net = Dpa_synth.Opt.optimize (Testkit.comb_of_profile "mult8") in
  let config =
    {
      (Dpa_phase.Optimizer.default_config
         ~input_probs:(Array.make (Netlist.num_inputs net) 0.5))
      with
      Dpa_phase.Optimizer.strategy = Dpa_phase.Optimizer.Greedy;
      pair_limit = Some 2;
      budget = Some (Engine.bounded ~deadline_s:0.0 ());
    }
  in
  let r = Dpa_phase.Optimizer.minimize_power config net in
  Alcotest.(check string) "greedy ran" "greedy" r.Dpa_phase.Optimizer.strategy_used;
  Alcotest.(check bool) "degraded measurements" true
    (r.Dpa_phase.Optimizer.degraded_measurements > 0);
  match r.Dpa_phase.Optimizer.degradation with
  | Some d -> Alcotest.(check bool) "cones simulated" true (Engine.simulated_cones d > 0)
  | None -> Alcotest.fail "expected a degraded report"

let test_budgeted_search_cancel () =
  (* uncapped, parity_wide's all-positive estimate — the search's first
     measurement and the source of its base probabilities — builds for
     most of the search's quarter second (2-vCPU host), so a token firing
     0.05 s after the search starts lands inside that BDD work, which
     polls it as the measurements do *)
  let net = Dpa_synth.Opt.optimize (Testkit.comb_of_profile "parity_wide") in
  let cost = Dpa_phase.Cost.make net in
  let cancel = Dpa_util.Cancel.create ~deadline_in:0.05 () in
  let measure =
    Dpa_phase.Measure.create
      ~budget:(Engine.bounded ~max_bdd_nodes:max_int ())
      ~cancel
      ~input_probs:(Array.make (Netlist.num_inputs net) 0.5)
      net
  in
  match Dpa_phase.Greedy.run ~pair_limit:2 measure ~cost with
  | _ -> Alcotest.fail "expected the token to stop the search"
  | exception Dpa_error.Error (Dpa_error.Cancelled _) -> ()

(* ---- malformed corpus --------------------------------------------- *)

let corpus =
  [ "truncated.blif"; "mixed_cover.blif"; "bad_char.blif"; "width_mismatch.blif";
    "cycle.blif"; "dangling_latch.blif" ]

let test_malformed_corpus_all_error () =
  List.iter
    (fun name ->
      let text = read_file (Filename.concat "malformed" name) in
      (* both entry points must return Error — never raise *)
      (match Dpa_logic.Blif.sequential_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: sequential_of_string accepted malformed input" name
      | exception e ->
        Alcotest.failf "%s: sequential_of_string raised %s" name (Printexc.to_string e));
      match Dpa_logic.Blif.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: of_string accepted malformed input" name
      | exception e -> Alcotest.failf "%s: of_string raised %s" name (Printexc.to_string e))
    corpus

let test_malformed_messages_carry_lines () =
  let check_line name =
    let text = read_file (Filename.concat "malformed" name) in
    match Dpa_logic.Blif.of_string text with
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s error %S names a line" name msg)
        true
        (Testkit.contains_substring msg "line ")
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" name
  in
  (* the row-level defects must point at the offending physical line *)
  List.iter check_line [ "mixed_cover.blif"; "bad_char.blif"; "width_mismatch.blif" ]

let test_width_mismatch_message_detail () =
  match Dpa_logic.Blif.of_string (read_file "malformed/width_mismatch.blif") with
  | Error msg ->
    Alcotest.(check bool) "mentions the width" true
      (Testkit.contains_substring msg "3 characters wide for 2 inputs")
  | Ok _ -> Alcotest.fail "width_mismatch.blif unexpectedly parsed"

(* ---- error taxonomy ----------------------------------------------- *)

let test_exit_codes () =
  let open Dpa_error in
  Alcotest.(check int) "parse" 65
    (exit_code (Parse { source = "x"; line = Some 3; message = "bad" }));
  Alcotest.(check int) "invalid" 65 (exit_code (Invalid_input "x"));
  Alcotest.(check int) "unsupported" 69 (exit_code (Unsupported "x"));
  Alcotest.(check int) "io" 66 (exit_code (Io "x"));
  Alcotest.(check int) "internal" 70 (exit_code (Internal "x"));
  Alcotest.(check int) "budget" 75
    (exit_code
       (Budget { resource = Bdd_nodes; limit = 10.0; spent = 10.0; context = "" }))

let test_of_exn_folding () =
  let open Dpa_error in
  (match of_exn (Sys_error "no such file") with
  | Some (Io _) -> ()
  | _ -> Alcotest.fail "Sys_error should fold to Io");
  (match of_exn (Invalid_argument "nope") with
  | Some (Invalid_input _) -> ()
  | _ -> Alcotest.fail "Invalid_argument should fold to Invalid_input");
  (match of_exn (Failure "bug") with
  | Some (Internal _) -> ()
  | _ -> Alcotest.fail "Failure should fold to Internal");
  (match of_exn (Fun.Finally_raised (Sys_error "t.json: No such file or directory")) with
  | Some (Io _) -> ()
  | _ -> Alcotest.fail "a Sys_error raised by a finalizer should fold to Io");
  match of_exn Not_found with
  | None -> ()
  | Some _ -> Alcotest.fail "unrelated exceptions must not be claimed"

let test_parse_exn_typed () =
  match Dpa_logic.Io.parse_exn "gibberish" with
  | _ -> Alcotest.fail "expected Dpa_error.Error"
  | exception Dpa_error.Error (Dpa_error.Parse _) -> ()
  | exception _ -> Alcotest.fail "wrong exception type"

(* ---- the collecting retry is exact -------------------------------- *)

let all_positive_block net =
  Dpa_domino.Mapped.map
    (Dpa_synth.Inverterless.realize net
       (Dpa_synth.Phase.all_positive (Netlist.num_outputs net)))

(* Caps from an eighth of the exact build up to all of it. At each one
   where the ladder simulates no cone, every probability and the total
   carry [of_mapped]'s bits, with no pool and at jobs 1 and 4. Returns
   the cones rung 2 rescued over those caps. *)
let check_retry_exact name mapped ~input_probs =
  let exact = Estimate.of_mapped ~input_probs mapped in
  let n = exact.Estimate.bdd_nodes in
  let caps = List.sort_uniq compare (List.filter (fun c -> c >= 3) [ n / 8; n / 4; n / 2; n ]) in
  List.fold_left
    (fun rescued cap ->
      let budget = Engine.bounded ~max_bdd_nodes:cap () in
      let run par = Engine.estimate ?par ~budget ~input_probs mapped in
      let r = run None in
      if Engine.simulated_cones r.Engine.degradation > 0 then rescued
      else begin
        List.iter
          (fun (jobs, (r : Engine.result)) ->
            let msg = Printf.sprintf "%s cap %d jobs %d" name cap jobs in
            Testkit.check_bits_array (msg ^ " node probs") exact.Estimate.node_probs
              r.Engine.report.Estimate.node_probs;
            Testkit.check_bits (msg ^ " total") exact.Estimate.total r.Engine.report.Estimate.total)
          ((0, r)
          :: List.map
               (fun jobs -> (jobs, Dpa_util.Par.with_pool ~jobs (fun pool -> run (Some pool))))
               [ 1; 4 ]);
        rescued + Engine.reordered_cones r.Engine.degradation
      end)
    0 caps

(* p = 0.7 (not dyadic, so a reassociated sum shows) and a seeded
   per-PI vector *)
let retry_probs net seed =
  let n = Netlist.num_inputs net in
  let rng = Dpa_util.Rng.create seed in
  [ ("p=0.7", Array.make n 0.7); ("seeded", Array.init n (fun _ -> Dpa_util.Rng.float rng 1.0)) ]

let prop_retry_exact =
  Testkit.qcheck_case ~count:30 ~name:"collecting retry matches of_mapped bit for bit"
    Testkit.gen_wide_netlist
    (fun (net, seed) ->
      List.iter
        (fun (label, input_probs) ->
          ignore (check_retry_exact label (all_positive_block net) ~input_probs))
        (retry_probs net seed);
      true)

(* Only mult8 and apex7 are held to a rescue: at these caps rung 2
   rescues no cone of frg1, whose three cones sit in three shards *)
let test_retry_exact_circuits () =
  List.iter
    (fun (name, raw, must_rescue) ->
      let net = Dpa_synth.Opt.optimize raw in
      List.iter
        (fun (label, input_probs) ->
          let name = name ^ " " ^ label in
          let rescued = check_retry_exact name (all_positive_block net) ~input_probs in
          if must_rescue then
            Alcotest.(check bool) (name ^ ": rung 2 rescued a cone") true (rescued > 0))
        (retry_probs net 11))
    (("mult8", Testkit.comb_of_profile "mult8", true)
    :: List.map
         (fun path -> (path, Testkit.load_blif path, path = "../data/apex7_synthetic.blif"))
         Testkit.data_files)

(* Rung 2 collects on the node cap only: a wall-clock or cancellation
   stop inside it passes straight through. *)
let test_retry_passes_deadline_and_cancel () =
  let net = Dpa_synth.Opt.optimize (Testkit.comb_of_profile "mult8") in
  let mapped = all_positive_block net in
  let input_probs = Array.make (Netlist.num_inputs net) 0.5 in
  let order = Estimate.block_order ~input_probs mapped in
  let cones = Dpa_logic.Cone.of_outputs (Dpa_domino.Mapped.net mapped) in
  let rung2 install =
    let b = Estimate.start_build ~order mapped in
    let m = Build.manager b in
    Robdd.set_budget ~max_nodes:20_000 m;
    let failed =
      List.filter
        (fun k ->
          match Build.build b ~within:(Bitset.mem cones.(k)) with
          | () -> false
          | exception Dpa_error.Budget_exceeded _ -> true)
        (List.init (Array.length cones) Fun.id)
    in
    Alcotest.(check bool) "rung 1 failed a cone" true (failed <> []);
    let union = Bitset.create (Bitset.universe_size cones.(0)) in
    List.iter (fun k -> Bitset.union_into union cones.(k)) failed;
    ignore (Build.collecting b ~input_probs ~within:(Bitset.mem union));
    install m;
    match Build.build b ~within:(Bitset.mem union) with
    | () -> Alcotest.fail "expected rung 2 to stop"
    | exception e ->
      Alcotest.(check int) "no collection" 0 (Robdd.stats m).Robdd.collections;
      e
  in
  (match rung2 (fun m -> Robdd.set_budget ~deadline:(Unix.gettimeofday () -. 1.0) m) with
  | Dpa_error.Budget_exceeded { Dpa_error.resource = Dpa_error.Wall_clock; _ } -> ()
  | e -> Alcotest.failf "expected a wall-clock stop, got %s" (Printexc.to_string e));
  let cancel = Dpa_util.Cancel.create () in
  Dpa_util.Cancel.cancel cancel;
  match rung2 (fun m -> Robdd.set_budget ~max_nodes:20_000 ~cancel m) with
  | Dpa_error.Error (Dpa_error.Cancelled _) -> ()
  | e -> Alcotest.failf "expected a cancellation, got %s" (Printexc.to_string e)

let suite =
  [ Alcotest.test_case "budget exceeded is typed" `Quick test_budget_exceeded_is_typed;
    Alcotest.test_case "fallback none raises" `Quick test_fallback_none_raises_budget_error;
    Alcotest.test_case "ladder on frg1" `Quick test_ladder_frg1;
    Alcotest.test_case "ladder on seq controller" `Quick test_ladder_seq_controller;
    Alcotest.test_case "deadline budget" `Quick test_deadline_budget;
    Alcotest.test_case "budgeted flow matches unbudgeted" `Slow
      test_budgeted_flow_matches_unbudgeted;
    Alcotest.test_case "budgeted search deadline" `Quick test_budgeted_search_deadline;
    Alcotest.test_case "budgeted search cancel" `Quick test_budgeted_search_cancel;
    Alcotest.test_case "malformed corpus all error" `Quick test_malformed_corpus_all_error;
    Alcotest.test_case "malformed messages carry lines" `Quick
      test_malformed_messages_carry_lines;
    Alcotest.test_case "width mismatch detail" `Quick test_width_mismatch_message_detail;
    Alcotest.test_case "exit codes" `Quick test_exit_codes;
    Alcotest.test_case "of_exn folding" `Quick test_of_exn_folding;
    Alcotest.test_case "parse_exn typed" `Quick test_parse_exn_typed;
    prop_retry_exact;
    Alcotest.test_case "collecting retry exact on circuits" `Quick test_retry_exact_circuits;
    Alcotest.test_case "rung 2 passes deadline and cancel" `Quick
      test_retry_passes_deadline_and_cancel ]
