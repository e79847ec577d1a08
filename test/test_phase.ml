module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase
module Cost = Dpa_phase.Cost
module Measure = Dpa_phase.Measure
module Greedy = Dpa_phase.Greedy
module Exhaustive = Dpa_phase.Exhaustive
module Annealing = Dpa_phase.Annealing
module Optimizer = Dpa_phase.Optimizer

let fig5 () = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ())

let test_property_4_1 () =
  (* Property 4.1: flipping an output's phase complements the average cone
     probability used by the cost function *)
  let net = fig5 () in
  let cost = Cost.make net in
  let base = Dpa_bdd.Build.probabilities ~input_probs:(Array.make 4 0.9) net in
  let a_pos = Cost.averages cost ~base_probs:base (Phase.all_positive 2) in
  let a_neg = Cost.averages cost ~base_probs:base [| Phase.Negative; Phase.Negative |] in
  Testkit.check_approx "A0 complements" (1.0 -. a_pos.(0)) a_neg.(0);
  Testkit.check_approx "A1 complements" (1.0 -. a_pos.(1)) a_neg.(1)

let test_cost_formulas () =
  (* hand-checkable instance: |D0| = 2, |D1| = 3, O = 0.2, A = (0.8, 0.4) *)
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let g0 = Netlist.add_gate t (Dpa_logic.Gate.And [| a; b |]) in
  let g1 = Netlist.add_gate t (Dpa_logic.Gate.Or [| a; g0 |]) in
  Netlist.add_output t "f" g0;
  Netlist.add_output t "g" g1;
  let cost = Cost.make t in
  Alcotest.(check int) "|D0|" 3 (Cost.cone_size cost 0);
  Alcotest.(check int) "|D1|" 4 (Cost.cone_size cost 1);
  (* D0 = {a,b,g0}, D1 = {a,b,g0,g1}: overlap = 3/7 *)
  Testkit.check_approx "overlap" (3.0 /. 7.0) (Cost.overlap cost 0 1);
  let averages = [| 0.8; 0.4 |] in
  let d0 = 3.0 and d1 = 4.0 and o = 3.0 /. 7.0 in
  Testkit.check_approx "K(++)"
    ((d0 *. 0.8) +. (d1 *. 0.4) +. (0.5 *. o *. (0.8 +. 0.4)))
    (Cost.k cost ~averages 0 Cost.Retain 1 Cost.Retain);
  Testkit.check_approx "K(--)"
    ((d0 *. 0.2) +. (d1 *. 0.6) +. (0.5 *. o *. (0.2 +. 0.6)))
    (Cost.k cost ~averages 0 Cost.Invert 1 Cost.Invert);
  Testkit.check_approx "K(+-)"
    ((d0 *. 0.8) +. (d1 *. 0.6) +. (0.5 *. o *. (0.8 +. 0.6)))
    (Cost.k cost ~averages 0 Cost.Retain 1 Cost.Invert);
  Testkit.check_approx "K(-+)"
    ((d0 *. 0.2) +. (d1 *. 0.4) +. (0.5 *. o *. (0.2 +. 0.4)))
    (Cost.k cost ~averages 0 Cost.Invert 1 Cost.Retain)

let test_best_action_pair () =
  let net = fig5 () in
  let cost = Cost.make net in
  (* with A = (0.9, 0.9) inverting both is cheapest *)
  let ai, aj, _ = Cost.best_action_pair cost ~averages:[| 0.9; 0.9 |] 0 1 in
  Alcotest.(check bool) "invert both" true (ai = Cost.Invert && aj = Cost.Invert);
  (* with A = (0.1, 0.1) retaining both is cheapest *)
  let ai, aj, _ = Cost.best_action_pair cost ~averages:[| 0.1; 0.1 |] 0 1 in
  Alcotest.(check bool) "retain both" true (ai = Cost.Retain && aj = Cost.Retain)

let measure_for net probs = Measure.create ~input_probs:probs net

let test_measure_caching () =
  let net = fig5 () in
  let m = measure_for net (Array.make 4 0.9) in
  let a = Phase.all_positive 2 in
  let s1 = Measure.eval m a in
  let s2 = Measure.eval m a in
  Alcotest.(check int) "one evaluation" 1 (Measure.evaluations m);
  Testkit.check_approx "same power" s1.Measure.power s2.Measure.power

(* A price that raises records no visit: the retry prices the
   assignment afresh and counts it once. *)
let test_measure_retry_after_failed_price () =
  let net = Dpa_synth.Opt.optimize (Testkit.load_blif "../data/frg1_synthetic.blif") in
  let input_probs = Array.make (Netlist.num_inputs net) 0.5 in
  let calls = ref 0 in
  let pricer mapped =
    incr calls;
    if !calls = 1 then failwith "first price fails";
    { Measure.power = 1.0; size = Dpa_domino.Mapped.size mapped; domino_switching = 0.5 }
  in
  let m = Measure.create ~pricer ~input_probs net in
  let a = Phase.all_positive (Netlist.num_outputs net) in
  Alcotest.check_raises "first price raises" (Failure "first price fails") (fun () ->
      ignore (Measure.eval m a));
  Alcotest.(check int) "no evaluation yet" 0 (Measure.evaluations m);
  let s = Measure.eval m a in
  Testkit.check_bits "the retry's sample" 1.0 s.Measure.power;
  Alcotest.(check int) "one evaluation" 1 (Measure.evaluations m);
  ignore (Measure.eval m a);
  Alcotest.(check int) "priced twice, the second time for good" 2 !calls

let test_measure_rejects_xor () =
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let x = Netlist.add_gate t (Dpa_logic.Gate.Xor (a, b)) in
  Netlist.add_output t "f" x;
  Alcotest.check_raises "xor rejected"
    (Invalid_argument "Measure.create: netlist contains XOR; run Opt.optimize first")
    (fun () -> ignore (Measure.create ~input_probs:[| 0.5; 0.5 |] t))

let test_exhaustive_fig5 () =
  (* at p = 0.9 the optimum is realization 2 of Fig. 5 (f+, g−) *)
  let net = fig5 () in
  let m = measure_for net (Array.make 4 0.9) in
  let r = Exhaustive.run m ~num_outputs:2 in
  Alcotest.(check string) "optimal assignment" "+-" (Phase.to_string r.Exhaustive.assignment);
  Testkit.check_approx ~eps:1e-6 "optimal power" 1.1219 r.Exhaustive.power;
  Alcotest.(check int) "tried all" 4 r.Exhaustive.evaluated

let test_greedy_never_worse_than_initial () =
  let net = fig5 () in
  let m = measure_for net (Array.make 4 0.9) in
  let cost = Cost.make net in
  let r = Greedy.run m ~cost in
  Alcotest.(check bool) "improves or equals" true (r.Greedy.power <= r.Greedy.initial_power)
  (* note: on fig5 the paper's pairwise heuristic proposes (−,−) for the
     single pair — both cone averages exceed ½ — measures it worse, and
     stops at the all-positive initial point. The optimum (+,−) needs the
     exhaustive search; this is exactly the limitation §4.1 concedes and
     frg1's exhaustive regime exists for. *)

let test_greedy_steps_recorded () =
  let net = fig5 () in
  let m = measure_for net (Array.make 4 0.9) in
  let cost = Cost.make net in
  let r = Greedy.run m ~cost in
  Alcotest.(check bool) "steps exist" true (List.length r.Greedy.steps >= 1);
  List.iter
    (fun s ->
      match s.Greedy.measured_power with
      | Some _ -> ()
      | None -> Alcotest.(check bool) "unmeasured steps never commit" false s.Greedy.committed)
    r.Greedy.steps

let test_greedy_commits_monotone () =
  (* committed powers decrease along the trace *)
  let p = { Dpa_workload.Generator.default with n_outputs = 4; seed = 3 } in
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Generator.combinational p) in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  let m = measure_for net probs in
  let cost = Cost.make net in
  let r = Greedy.run m ~cost in
  let last = ref r.Greedy.initial_power in
  List.iter
    (fun s ->
      if s.Greedy.committed then begin
        match s.Greedy.measured_power with
        | Some p ->
          Alcotest.(check bool) "commit strictly improves" true (p < !last);
          last := p
        | None -> Alcotest.fail "committed step without measurement"
      end)
    r.Greedy.steps

(* property: greedy power ≥ exhaustive power (exhaustive is optimal), and
   both never exceed the all-positive baseline *)
let prop_greedy_vs_exhaustive =
  Testkit.qcheck_case ~count:30 ~name:"exhaustive ≤ greedy ≤ initial"
    QCheck2.Gen.(pair (Testkit.arbitrary_netlist ()) (Testkit.probs_gen 5))
    (fun (net, probs) ->
      let net = Dpa_synth.Opt.optimize net in
      let m = measure_for net probs in
      let cost = Cost.make net in
      let g = Greedy.run m ~cost in
      let e = Exhaustive.run m ~num_outputs:(Netlist.num_outputs net) in
      e.Exhaustive.power <= g.Greedy.power +. 1e-9
      && g.Greedy.power <= g.Greedy.initial_power +. 1e-9)

let test_annealing_improves () =
  let net = fig5 () in
  let m = measure_for net (Array.make 4 0.9) in
  let rng = Dpa_util.Rng.create 1 in
  let r = Annealing.run rng m ~num_outputs:2 in
  (* annealing tracks the best-ever state; with 400 steps over a 4-point
     space it must find the optimum *)
  Testkit.check_approx ~eps:1e-6 "finds optimum" 1.1219 r.Annealing.power

let test_optimizer_auto_small () =
  let net = fig5 () in
  let config = Optimizer.default_config ~input_probs:(Array.make 4 0.9) in
  let r = Optimizer.minimize_power config net in
  Alcotest.(check string) "strategy" "exhaustive" r.Optimizer.strategy_used;
  Alcotest.(check string) "assignment" "+-" (Phase.to_string r.Optimizer.assignment)

let test_optimizer_auto_wide () =
  let p = { Dpa_workload.Generator.default with n_outputs = 6; n_inputs = 12; seed = 9 } in
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Generator.combinational p) in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  let config = { (Optimizer.default_config ~input_probs:probs) with exhaustive_limit = 4 } in
  let r = Optimizer.minimize_power config net in
  Alcotest.(check string) "greedy used" "greedy" r.Optimizer.strategy_used;
  Alcotest.(check bool) "measured something" true (r.Optimizer.measurements >= 1)

let test_optimizer_annealing_strategy () =
  let net = fig5 () in
  let config =
    { (Optimizer.default_config ~input_probs:(Array.make 4 0.9)) with
      strategy = Optimizer.Annealing Annealing.default_params }
  in
  let r = Optimizer.minimize_power config net in
  Alcotest.(check string) "strategy" "annealing" r.Optimizer.strategy_used;
  Testkit.check_approx ~eps:1e-6 "power" 1.1219 r.Optimizer.power

let test_k_tuple_coincides_with_pair () =
  let net = fig5 () in
  let cost = Cost.make net in
  let averages = [| 0.7; 0.3 |] in
  Testkit.check_approx "tuple(+,+) = k(+,+)"
    (Cost.k cost ~averages 0 Cost.Retain 1 Cost.Retain)
    (Cost.k_tuple cost ~averages [ (0, Cost.Retain); (1, Cost.Retain) ]);
  Testkit.check_approx "tuple(-,+) = k(-,+)"
    (Cost.k cost ~averages 0 Cost.Invert 1 Cost.Retain)
    (Cost.k_tuple cost ~averages [ (0, Cost.Invert); (1, Cost.Retain) ])

let test_ranked_action_tuples_sorted () =
  let net = fig5 () in
  let cost = Cost.make net in
  let ranked = Cost.ranked_action_tuples cost ~averages:[| 0.9; 0.2 |] [ 0; 1 ] in
  Alcotest.(check int) "four vectors" 4 (List.length ranked);
  let costs = List.map snd ranked in
  Alcotest.(check bool) "ascending" true (List.sort compare costs = costs);
  let best_actions, best_cost = Cost.best_action_tuple cost ~averages:[| 0.9; 0.2 |] [ 0; 1 ] in
  (match ranked with
  | (a, c) :: _ ->
    Testkit.check_approx "head is argmin" best_cost c;
    Alcotest.(check bool) "same actions" true (a = best_actions)
  | [] -> Alcotest.fail "empty ranking")

let tuple_fixture () =
  let p =
    { Dpa_workload.Generator.default with
      Dpa_workload.Generator.seed = 77;
      n_inputs = 20;
      n_outputs = 5;
      gates_per_output = 8;
      and_bias = 0.35;
      inverter_prob = 0.1;
      reuse_fraction = 0.4 }
  in
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Generator.combinational p) in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  (net, probs)

let test_tuple_search_improves () =
  let net, probs = tuple_fixture () in
  let cost = Cost.make net in
  let exhaustive = Exhaustive.run (measure_for net probs) ~num_outputs:5 in
  List.iter
    (fun k ->
      let m = measure_for net probs in
      let r = Dpa_phase.Tuple_search.run ~k m ~cost in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d no worse than initial" k)
        true
        (r.Dpa_phase.Tuple_search.power <= r.Dpa_phase.Tuple_search.initial_power +. 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d no better than optimum" k)
        true
        (r.Dpa_phase.Tuple_search.power >= exhaustive.Exhaustive.power -. 1e-9))
    [ 2; 3; 4; 5 ]

let test_tuple_search_full_width_with_budget_is_exhaustive_like () =
  (* k = n with a full vector budget must reach the global optimum: the
     ranked enumeration covers all 2^n assignments *)
  let net, probs = tuple_fixture () in
  let cost = Cost.make net in
  let m = measure_for net probs in
  let r = Dpa_phase.Tuple_search.run ~k:5 ~vectors_per_tuple:32 m ~cost in
  let e = Exhaustive.run (measure_for net probs) ~num_outputs:5 in
  Testkit.check_approx ~eps:1e-9 "greedily ordered exhaustive finds the optimum"
    e.Exhaustive.power r.Dpa_phase.Tuple_search.power

let test_tuple_search_validation () =
  let net, probs = tuple_fixture () in
  let cost = Cost.make net in
  Alcotest.check_raises "k too small" (Invalid_argument "Tuple_search.run: k = 1 outside [2, 5]")
    (fun () -> ignore (Dpa_phase.Tuple_search.run ~k:1 (measure_for net probs) ~cost))

let test_timing_aware_meets_clock () =
  let net, probs = tuple_fixture () in
  let ma = Dpa_synth.Min_area.best net in
  let mapped = Dpa_phase.Measure.realize_mapped (measure_for net probs) ma in
  let unsized = (Dpa_timing.Sta.analyze mapped).Dpa_timing.Sta.critical_delay in
  let config = Dpa_phase.Timing_aware.default_config ~input_probs:probs ~clock:(0.7 *. unsized) in
  let r = Dpa_phase.Timing_aware.minimize config net in
  Alcotest.(check bool) "met" true r.Dpa_phase.Timing_aware.met;
  Alcotest.(check bool) "within clock" true
    (r.Dpa_phase.Timing_aware.delay <= config.Dpa_phase.Timing_aware.clock +. 1e-9);
  Alcotest.(check bool) "finite power" true (Float.is_finite r.Dpa_phase.Timing_aware.power)

let test_timing_aware_never_worse_than_seq_flow () =
  (* integration prices post-closure power, so the winner's post-closure
     power cannot exceed the phase-then-resize flow's (both searched
     exhaustively here) *)
  let net, probs = tuple_fixture () in
  let ma = Dpa_synth.Min_area.best net in
  let mapped0 = Dpa_phase.Measure.realize_mapped (measure_for net probs) ma in
  let unsized = (Dpa_timing.Sta.analyze mapped0).Dpa_timing.Sta.critical_delay in
  let clock = 0.5 *. unsized in
  let seq = Optimizer.minimize_power (Optimizer.default_config ~input_probs:probs) net in
  let seq_mapped =
    Dpa_phase.Measure.realize_mapped (measure_for net probs) seq.Optimizer.assignment
  in
  ignore (Dpa_timing.Resize.meet ~clock seq_mapped);
  let seq_power =
    (Dpa_power.Estimate.of_mapped ~input_probs:probs seq_mapped).Dpa_power.Estimate.total
  in
  let ta =
    Dpa_phase.Timing_aware.minimize
      (Dpa_phase.Timing_aware.default_config ~input_probs:probs ~clock) net
  in
  Alcotest.(check bool) "integrated ≤ sequential" true
    (ta.Dpa_phase.Timing_aware.power <= seq_power +. 1e-9)

let test_timing_aware_validation () =
  let net, probs = tuple_fixture () in
  Alcotest.check_raises "bad clock"
    (Invalid_argument "Timing_aware.minimize: clock must be positive") (fun () ->
      ignore
        (Dpa_phase.Timing_aware.minimize
           (Dpa_phase.Timing_aware.default_config ~input_probs:probs ~clock:0.0) net))

(* ---- incremental measurement vs. from-scratch rebuild ---- *)

let example_circuits () =
  [ ("fig5", Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()));
    ("fig10", Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig10 ()));
    ("decoder3", Dpa_synth.Opt.optimize (Dpa_workload.Examples.decoder ~bits:3));
    ("arbiter4", Dpa_synth.Opt.optimize (Dpa_workload.Examples.priority_arbiter ~width:4));
    ("carry4", Dpa_synth.Opt.optimize (Dpa_workload.Examples.carry_chain ~width:4)) ]

let example_probs net =
  Array.init (Netlist.num_inputs net) (fun k -> 0.25 +. (0.06 *. float_of_int (k mod 10)))

let test_incremental_greedy_matches_rebuild () =
  List.iter
    (fun (name, net) ->
      let probs = example_probs net in
      let cost = Cost.make net in
      let run ?pricer () =
        Greedy.run (Measure.create ?pricer ~input_probs:probs net) ~cost
      in
      (* the oracle: a fresh manager and per-block order for every candidate *)
      let rebuild mapped =
        let r = Dpa_power.Estimate.of_mapped ~input_probs:probs mapped in
        {
          Measure.power = r.Dpa_power.Estimate.total;
          size = Dpa_domino.Mapped.size mapped;
          domino_switching = r.Dpa_power.Estimate.domino_switching;
        }
      in
      let inc = run () and reb = run ~pricer:rebuild () in
      Alcotest.(check string)
        (name ^ ": same assignment")
        (Phase.to_string reb.Greedy.assignment)
        (Phase.to_string inc.Greedy.assignment);
      Alcotest.(check int) (name ^ ": same commits") reb.Greedy.commits inc.Greedy.commits;
      Testkit.check_approx ~eps:1e-9 (name ^ ": same power") reb.Greedy.power
        inc.Greedy.power)
    (example_circuits ())

(* ---- compound cells: every candidate's block is built ---- *)

(* f = (a∧b) ∨ (c∧d∧e) ∨ g absorbs both AND terms into one compound
   cell; h = (a∧b) ∨ (c∧x) shares a∧b, so whether that term is absorbed
   depends on the phase h asks of it. *)
let absorbable_net () =
  let t = Netlist.create () in
  let x = Array.init 7 (fun k -> Netlist.add_input ~name:(Printf.sprintf "x%d" k) t) in
  let ab = Netlist.add_gate t (Dpa_logic.Gate.And [| x.(0); x.(1) |]) in
  let cde = Netlist.add_gate t (Dpa_logic.Gate.And [| x.(2); x.(3); x.(4) |]) in
  let cx = Netlist.add_gate t (Dpa_logic.Gate.And [| x.(2); x.(6) |]) in
  Netlist.add_output t "f" (Netlist.add_gate t (Dpa_logic.Gate.Or [| ab; cde; x.(5) |]));
  Netlist.add_output t "h" (Netlist.add_gate t (Dpa_logic.Gate.Or [| ab; cx |]));
  Netlist.add_output t "g" (Netlist.add_gate t (Dpa_logic.Gate.Not cx));
  t

let test_compound_search_prices_blocks () =
  let library = Dpa_domino.Library.with_compound Dpa_domino.Library.default in
  List.iter
    (fun (name, net) ->
      let probs = example_probs net in
      (* the oracle: realize → map → a from-scratch of_mapped for every
         candidate *)
      let visited = ref [] in
      let oracle mapped =
        let r = Dpa_power.Estimate.of_mapped ~input_probs:probs mapped in
        let s =
          {
            Measure.power = r.Dpa_power.Estimate.total;
            size = Dpa_domino.Mapped.size mapped;
            domino_switching = r.Dpa_power.Estimate.domino_switching;
          }
        in
        visited := (Dpa_domino.Mapped.assignment mapped, s) :: !visited;
        s
      in
      let config = { (Optimizer.default_config ~input_probs:probs) with Optimizer.library } in
      let expected =
        Optimizer.minimize_power_with
          (Measure.create ~library ~pricer:oracle ~input_probs:probs net)
          config net
      in
      let measure = Optimizer.measure config net in
      let got = Optimizer.minimize_power_with measure config net in
      Alcotest.(check string)
        (name ^ " assignment")
        (Phase.to_string expected.Optimizer.assignment)
        (Phase.to_string got.Optimizer.assignment);
      Testkit.check_bits (name ^ " power") expected.Optimizer.power got.Optimizer.power;
      Alcotest.(check int) (name ^ " size") expected.Optimizer.size got.Optimizer.size;
      Alcotest.(check int)
        (name ^ " measurements")
        expected.Optimizer.measurements got.Optimizer.measurements;
      List.iter
        (fun (a, (s : Measure.sample)) ->
          let m = Measure.eval measure a in
          let tag = name ^ " " ^ Phase.to_string a in
          Testkit.check_bits (tag ^ " power") s.Measure.power m.Measure.power;
          Testkit.check_bits (tag ^ " switching") s.Measure.domino_switching
            m.Measure.domino_switching;
          Alcotest.(check int) (tag ^ " size") s.Measure.size m.Measure.size)
        !visited)
    [ ("absorbable", absorbable_net ());
      ("apex7", Dpa_synth.Opt.optimize (Testkit.comb_of_profile "apex7")) ]

let test_averager_matches_averages () =
  let net = fig5 () in
  let cost = Cost.make net in
  let base = Dpa_bdd.Build.probabilities ~input_probs:(Array.make 4 0.9) net in
  let means = Cost.averager cost ~base_probs:base in
  List.iter
    (fun a ->
      let expect = Cost.averages cost ~base_probs:base a in
      let got = Cost.averages_of cost means a in
      Array.iteri (fun i e -> Testkit.check_approx "averager" e got.(i)) expect)
    [ Phase.all_positive 2;
      [| Phase.Negative; Phase.Positive |];
      [| Phase.Negative; Phase.Negative |] ]

(* ---- base probabilities: the all-positive block read back ---------- *)

let base_circuits () =
  List.map (fun path -> (Filename.basename path, Testkit.load_blif path)) Testkit.data_files
  @ List.map
      (fun name -> (name, Testkit.comb_of_profile name))
      [ "apex7"; "industry3"; "parity_smoke"; "add4x8"; "mult8" ]
  |> List.map (fun (name, raw) -> (name, Dpa_synth.Opt.optimize raw))

(* the nodes the K cost averages over *)
let cone_nodes net =
  let cones = Dpa_logic.Cone.of_outputs net in
  List.filter
    (fun i -> Array.exists (fun c -> Dpa_util.Bitset.mem c i) cones)
    (List.init (Netlist.size net) Fun.id)

(* the table path against the netlist build it replaces *)
let check_table_base ~same ~tag input_probs_of =
  List.iter
    (fun (name, net) ->
      let input_probs = input_probs_of net in
      let base = Measure.base_probs (Measure.create ~input_probs net) in
      let exact = Dpa_bdd.Build.probabilities ~input_probs net in
      List.iter
        (fun i -> same (Printf.sprintf "%s %s node %d" name tag i) exact.(i) base.(i))
        (cone_nodes net))
    (base_circuits ())

let test_base_probs_exact_at_half () =
  check_table_base ~same:Testkit.check_bits ~tag:"p=0.5" (fun net ->
      Array.make (Netlist.num_inputs net) 0.5)

let test_base_probs_ulps () =
  (* the env's variable order is not the netlist build's, so sums round
     differently away from dyadic probabilities — by a few ulps *)
  let few_ulps msg a b =
    if Float.abs (a -. b) > 8.0 *. epsilon_float then
      Alcotest.failf "%s: %h vs %h (%.3g apart)" msg a b (Float.abs (a -. b))
  in
  check_table_base ~same:few_ulps ~tag:"p=0.7" (fun net ->
      Array.make (Netlist.num_inputs net) 0.7);
  check_table_base ~same:few_ulps ~tag:"per-PI" (fun net ->
      let rng = Dpa_util.Rng.create 23 in
      Array.init (Netlist.num_inputs net) (fun _ -> Dpa_util.Rng.float rng 1.0))

let test_base_probs_same_across_pricings () =
  (* the slot table, a custom pricer's base (of_mapped of the
     all-positive block, in a manager of its own) and the compound
     engine's own price all read the same all-positive BDDs *)
  let net = Dpa_synth.Opt.optimize (Testkit.comb_of_profile "apex7") in
  let input_probs = example_probs net in
  let table = Measure.base_probs (Measure.create ~input_probs net) in
  let pricer _ = { Measure.power = 0.0; size = 0; domino_switching = 0.0 } in
  let priced = Measure.base_probs (Measure.create ~pricer ~input_probs net) in
  let library = Dpa_domino.Library.with_compound Dpa_domino.Library.default in
  let engine = Measure.base_probs (Measure.create ~library ~input_probs net) in
  let priced_compound = Measure.base_probs (Measure.create ~library ~pricer ~input_probs net) in
  List.iter
    (fun i ->
      Testkit.check_bits (Printf.sprintf "pricer node %d" i) table.(i) priced.(i);
      Testkit.check_bits (Printf.sprintf "engine node %d" i) table.(i) engine.(i);
      Testkit.check_bits
        (Printf.sprintf "compound pricer node %d" i)
        table.(i) priced_compound.(i))
    (cone_nodes net)

(* Property 4.1 read backwards works off any assignment's block: every
   cone node gets a probability, and it is the netlist's *)
let prop_original_probabilities =
  let gen =
    QCheck2.Gen.(
      let* net, seed = Testkit.gen_wide_netlist in
      let* probs = Testkit.probs_gen (Netlist.num_inputs net) in
      return (net, seed, probs))
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:150 ~name:"base probabilities from any block"
       ~print:(fun (net, seed, _) -> Testkit.print_wide_case (net, seed))
       gen
  @@ fun (net, seed, input_probs) ->
      let assignment =
        Phase.random (Dpa_util.Rng.create seed) ~num_outputs:(Netlist.num_outputs net)
      in
      let mapped = Dpa_domino.Mapped.map (Dpa_synth.Inverterless.realize net assignment) in
      let report = Dpa_power.Estimate.of_mapped ~input_probs mapped in
      let v =
        Dpa_power.Estimate.original_probabilities net ~input_probs mapped
          ~node_probs:report.Dpa_power.Estimate.node_probs
      in
      let exact = Dpa_bdd.Build.probabilities ~input_probs net in
      List.for_all
        (fun i ->
          Float.is_finite v.(i) && v.(i) >= 0.0 && v.(i) <= 1.0
          && Testkit.approx ~eps:1e-12 exact.(i) v.(i))
        (cone_nodes net)

let test_base_probs_under_cap () =
  (* a 16-node cap sends cones to simulation: the vector is the
     all-positive estimate's node_probs at the slot roots, and pricing
     the block for it is no evaluation until the search visits it *)
  let net = Dpa_synth.Opt.optimize (Testkit.load_blif "../data/frg1_synthetic.blif") in
  let input_probs = Array.make (Netlist.num_inputs net) 0.7 in
  let budget = Dpa_power.Engine.bounded ~max_bdd_nodes:16 () in
  let m = Measure.create ~budget ~input_probs net in
  let base = Measure.base_probs m in
  Alcotest.(check int) "not an evaluation" 0 (Measure.evaluations m);
  let all_pos = Phase.all_positive (Netlist.num_outputs net) in
  let mapped = Dpa_domino.Mapped.map (Dpa_synth.Inverterless.realize net all_pos) in
  let r = Dpa_power.Engine.estimate ~budget ~input_probs mapped in
  Alcotest.(check bool) "cones simulated" true
    (Dpa_power.Engine.simulated_cones r.Dpa_power.Engine.degradation > 0);
  let probs = r.Dpa_power.Engine.report.Dpa_power.Estimate.node_probs in
  let at s = probs.(Dpa_domino.Mapped.slot_root mapped s) in
  let exact = Dpa_bdd.Build.probabilities ~input_probs net in
  List.iter
    (fun i ->
      let msg = Printf.sprintf "node %d" i in
      (match Netlist.gate net i with
      | Dpa_logic.Gate.And _ | Dpa_logic.Gate.Or _ | Dpa_logic.Gate.Const _ ->
        let expect =
          if Dpa_domino.Mapped.slot_root mapped (2 * i) >= 0 then at (2 * i)
          else 1.0 -. at ((2 * i) + 1)
        in
        Testkit.check_bits msg expect base.(i)
      | Dpa_logic.Gate.Input | Dpa_logic.Gate.Buf _ | Dpa_logic.Gate.Not _
      | Dpa_logic.Gate.Xor _ -> ());
      Alcotest.(check bool) (msg ^ " within Monte-Carlo tolerance") true
        (Float.abs (base.(i) -. exact.(i)) < 0.05))
    (cone_nodes net);
  let before = Measure.evaluations m in
  ignore (Measure.eval m all_pos);
  Alcotest.(check int) "visited once, priced once" (before + 1) (Measure.evaluations m);
  match Measure.priced m all_pos with
  | Some (s, _) ->
    Testkit.check_bits "same price" r.Dpa_power.Engine.report.Dpa_power.Estimate.total
      s.Measure.power
  | None -> Alcotest.fail "all-positive left unpriced"

let suite =
  [ Alcotest.test_case "property 4.1" `Quick test_property_4_1;
    Alcotest.test_case "base probs exact at 0.5" `Quick test_base_probs_exact_at_half;
    Alcotest.test_case "base probs within ulps" `Quick test_base_probs_ulps;
    Alcotest.test_case "base probs same across pricings" `Quick
      test_base_probs_same_across_pricings;
    Alcotest.test_case "base probs under a cap" `Quick test_base_probs_under_cap;
    prop_original_probabilities;
    Alcotest.test_case "incremental greedy = rebuild greedy" `Quick
      test_incremental_greedy_matches_rebuild;
    Alcotest.test_case "compound search prices every block" `Quick
      test_compound_search_prices_blocks;
    Alcotest.test_case "averager matches averages" `Quick test_averager_matches_averages;
    Alcotest.test_case "cost formulas" `Quick test_cost_formulas;
    Alcotest.test_case "best action pair" `Quick test_best_action_pair;
    Alcotest.test_case "measure caching" `Quick test_measure_caching;
    Alcotest.test_case "measure retries a failed price" `Quick
      test_measure_retry_after_failed_price;
    Alcotest.test_case "measure rejects xor" `Quick test_measure_rejects_xor;
    Alcotest.test_case "exhaustive fig5" `Quick test_exhaustive_fig5;
    Alcotest.test_case "greedy improves" `Quick test_greedy_never_worse_than_initial;
    Alcotest.test_case "greedy trace" `Quick test_greedy_steps_recorded;
    Alcotest.test_case "greedy commits monotone" `Quick test_greedy_commits_monotone;
    Alcotest.test_case "annealing improves" `Quick test_annealing_improves;
    Alcotest.test_case "optimizer auto small" `Quick test_optimizer_auto_small;
    Alcotest.test_case "optimizer auto wide" `Quick test_optimizer_auto_wide;
    Alcotest.test_case "optimizer annealing" `Quick test_optimizer_annealing_strategy;
    Alcotest.test_case "k-tuple coincides with pair" `Quick test_k_tuple_coincides_with_pair;
    Alcotest.test_case "ranked action tuples" `Quick test_ranked_action_tuples_sorted;
    Alcotest.test_case "tuple search bounds" `Quick test_tuple_search_improves;
    Alcotest.test_case "tuple search full width" `Quick
      test_tuple_search_full_width_with_budget_is_exhaustive_like;
    Alcotest.test_case "tuple search validation" `Quick test_tuple_search_validation;
    Alcotest.test_case "timing-aware meets clock" `Quick test_timing_aware_meets_clock;
    Alcotest.test_case "timing-aware vs sequential" `Quick
      test_timing_aware_never_worse_than_seq_flow;
    Alcotest.test_case "timing-aware validation" `Quick test_timing_aware_validation;
    prop_greedy_vs_exhaustive ]
