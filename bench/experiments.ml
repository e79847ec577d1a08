(* Regeneration of every table and figure of the paper (see DESIGN.md §4
   and EXPERIMENTS.md for the paper-vs-measured record). Each experiment
   prints the same rows/series the paper reports. *)

module Table = Dpa_util.Table
module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase
module Inverterless = Dpa_synth.Inverterless
module Mapped = Dpa_domino.Mapped
module Estimate = Dpa_power.Estimate
module Flow = Dpa_core.Flow

let section title =
  Printf.printf "\n=== %s ===\n\n" title

(* ------------------------------------------------------------------ *)
(* Figure 2: switching vs signal probability                           *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2 — switching probability vs signal probability";
  let t =
    Table.create
      ~columns:
        [ ("signal p", Table.Right);
          ("domino S = p", Table.Right);
          ("static S = 2p(1-p)", Table.Right) ]
  in
  List.iter
    (fun (p, dom, sta) ->
      Table.add_row t
        [ Table.cell_float p; Table.cell_float ~decimals:3 dom;
          Table.cell_float ~decimals:3 sta ])
    (Dpa_power.Model.fig2_points ~steps:11 ());
  Table.print t;
  print_endline
    "Domino switching rises linearly with signal probability (Property 2.1);\n\
     static CMOS peaks at p = 1/2. The asymmetry above p = 1/2 is what phase\n\
     assignment exploits."

(* ------------------------------------------------------------------ *)
(* Figures 3 & 4: inverter removal and duplication per assignment      *)
(* ------------------------------------------------------------------ *)

let fig3_4 () =
  section "Figures 3–4 — inverter removal and phase-dependent duplication";
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  let t =
    Table.create
      ~columns:
        [ ("phases f,g", Table.Left);
          ("domino gates", Table.Right);
          ("duplicated", Table.Right);
          ("input invs", Table.Right);
          ("output invs", Table.Right);
          ("area", Table.Right) ]
  in
  Seq.iter
    (fun a ->
      let s = Inverterless.stats (Inverterless.realize net a) in
      Table.add_row t
        [ Phase.to_string a;
          Table.cell_int s.Inverterless.domino_gates;
          Table.cell_int s.Inverterless.duplicated_nodes;
          Table.cell_int s.Inverterless.input_inverters;
          Table.cell_int s.Inverterless.output_inverters;
          Table.cell_int s.Inverterless.area ])
    (Phase.enumerate ~num_outputs:2);
  Table.print t;
  print_endline
    "Every realization is inverter-free inside the block; conflicting phases\n\
     duplicate shared logic (the trapped-inverter penalty of Fig. 4)."

(* ------------------------------------------------------------------ *)
(* Figure 5: the exact worked power numbers                            *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5 — switching of two phase assignments (input p = 0.9)";
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  let probs = Array.make 4 0.9 in
  let report name assignment paper_domino paper_in paper_out =
    let mapped = Mapped.map (Inverterless.realize net assignment) in
    let r = Estimate.of_mapped ~input_probs:probs mapped in
    Printf.printf "%s (phases %s):\n" name (Phase.to_string assignment);
    Printf.printf "  domino block        %8.4f   (paper: %s)\n"
      r.Estimate.domino_switching paper_domino;
    Printf.printf "  input inverters     %8.4f   (paper: %s)\n"
      r.Estimate.input_inverter_power paper_in;
    Printf.printf "  output inverters    %8.4f   (paper: %s)\n"
      r.Estimate.output_inverter_power paper_out;
    Printf.printf "  TOTAL SWITCHING     %8.4f\n\n" r.Estimate.total;
    r.Estimate.total
  in
  let t1 = report "Realization 1" [| Phase.Negative; Phase.Positive |] "3.6" "0.0" ".8019" in
  let t2 = report "Realization 2" [| Phase.Positive; Phase.Negative |] ".40" ".72" ".0019" in
  Printf.printf "Realization 2 has %.1f%% fewer transitions (paper: 75%%).\n"
    ((t1 -. t2) /. t1 *. 100.0)

(* ------------------------------------------------------------------ *)
(* Figure 6: the measure-and-commit optimization loop, traced          *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6 — power minimization loop trace (greedy pairwise search)";
  let p =
    { Dpa_workload.Generator.default with
      Dpa_workload.Generator.seed = 42;
      n_inputs = 24;
      n_outputs = 6;
      gates_per_output = 10;
      and_bias = 0.35;
      inverter_prob = 0.1;
      reuse_fraction = 0.4 }
  in
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Generator.combinational p) in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  let measure = Dpa_phase.Measure.create ~input_probs:probs net in
  let cost = Dpa_phase.Cost.make net in
  let base = Dpa_bdd.Build.probabilities ~input_probs:probs net in
  let r = Dpa_phase.Greedy.run measure ~cost ~base_probs:base in
  Printf.printf "initial power %.3f (all positive)\n" r.Dpa_phase.Greedy.initial_power;
  List.iteri
    (fun k step ->
      let (i, j) = step.Dpa_phase.Greedy.pair in
      let action = function Dpa_phase.Cost.Retain -> '+' | Dpa_phase.Cost.Invert -> '-' in
      let ai, aj = step.Dpa_phase.Greedy.actions in
      match step.Dpa_phase.Greedy.measured_power with
      | None ->
        Printf.printf "  step %2d: pair (%d,%d) %c%c  K=%7.2f  retained, no synthesis\n" k i j
          (action ai) (action aj) step.Dpa_phase.Greedy.predicted_cost
      | Some p ->
        Printf.printf "  step %2d: pair (%d,%d) %c%c  K=%7.2f  measured %.3f  %s\n" k i j
          (action ai) (action aj) step.Dpa_phase.Greedy.predicted_cost p
          (if step.Dpa_phase.Greedy.committed then "COMMIT" else "reject"))
    r.Dpa_phase.Greedy.steps;
  Printf.printf "final power %.3f with phases %s (%d commits)\n" r.Dpa_phase.Greedy.power
    (Phase.to_string r.Dpa_phase.Greedy.assignment)
    r.Dpa_phase.Greedy.commits

(* ------------------------------------------------------------------ *)
(* Figure 7: partitioning a sequential circuit                         *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Figure 7 — sequential partitioning: fewer pseudo-inputs is better";
  let sn = Dpa_workload.Examples.fig7_sequential () in
  let n_ffs = Dpa_seq.Seq_netlist.n_ffs sn in
  let ideal = Dpa_seq.Partition.probabilities ~input_probs:[| 0.5 |] sn in
  Printf.printf "circuit: %d flip-flops, two coupled loops\n" n_ffs;
  Printf.printf "naive partition: cut every flip-flop -> %d pseudo-inputs at p=0.5\n" n_ffs;
  Printf.printf "MFVS partition:  cut {%s} -> %d pseudo-input(s)\n"
    (String.concat "," (List.map string_of_int ideal.Dpa_seq.Partition.fvs))
    (List.length ideal.Dpa_seq.Partition.fvs);
  (* compare against long-run simulation *)
  let rng = Dpa_util.Rng.create 7 in
  let cycles = 50_000 in
  let vectors =
    Array.init cycles (fun _ -> [| Dpa_util.Rng.bernoulli rng 0.5 |])
  in
  let core = Dpa_seq.Seq_netlist.comb sn in
  let state = Array.map (fun ff -> ff.Dpa_seq.Seq_netlist.init) (Dpa_seq.Seq_netlist.ffs sn) in
  let hits = Array.make n_ffs 0 in
  Array.iter
    (fun vec ->
      let values = Dpa_logic.Eval.all_nodes core (Array.append vec state) in
      Array.iteri
        (fun k ff -> state.(k) <- values.(ff.Dpa_seq.Seq_netlist.data))
        (Dpa_seq.Seq_netlist.ffs sn);
      Array.iteri (fun k q -> if q then hits.(k) <- hits.(k) + 1) state)
    vectors;
  let t =
    Table.create
      ~columns:
        [ ("flip-flop", Table.Left); ("estimated P(Q)", Table.Right);
          ("simulated P(Q)", Table.Right); ("cut?", Table.Left) ]
  in
  Array.iteri
    (fun k est ->
      Table.add_row t
        [ Printf.sprintf "ff%d" k;
          Table.cell_float ~decimals:3 est;
          Table.cell_float ~decimals:3 (float_of_int hits.(k) /. float_of_int cycles);
          (if List.mem k ideal.Dpa_seq.Partition.fvs then "cut (p=0.5 assumed)" else "") ])
    ideal.Dpa_seq.Partition.ff_probs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 8: the classical s-graph reductions                          *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "Figure 8 — classical MFVS reductions on the s-graph";
  (* (a) sink/source removal *)
  let g = Dpa_seq.Sgraph.create 3 in
  Dpa_seq.Sgraph.add_edge g 0 1;
  Dpa_seq.Sgraph.add_edge g 1 2;
  let forced = Dpa_seq.Mfvs.reduce g in
  Printf.printf "(a) chain 0->1->2 (no cycles): reduced away, forced = {%s}, alive = %d\n"
    (String.concat "," (List.map string_of_int forced))
    (List.length (Dpa_seq.Sgraph.alive_vertices g));
  (* (b) self loop forces membership *)
  let g = Dpa_seq.Sgraph.create 2 in
  Dpa_seq.Sgraph.add_edge g 0 0;
  Dpa_seq.Sgraph.add_edge g 0 1;
  Dpa_seq.Sgraph.add_edge g 1 0;
  let forced = Dpa_seq.Mfvs.reduce g in
  Printf.printf "(b) self-loop on 0: forced = {%s}\n"
    (String.concat "," (List.map string_of_int forced));
  (* (c) unit degree bypass *)
  let g = Dpa_seq.Sgraph.create 3 in
  Dpa_seq.Sgraph.add_edge g 0 1;
  Dpa_seq.Sgraph.add_edge g 1 2;
  Dpa_seq.Sgraph.add_edge g 2 0;
  let forced = Dpa_seq.Mfvs.reduce g in
  Printf.printf "(c) 3-cycle: unit-degree bypasses collapse it, forced = {%s} (1 vertex)\n"
    (String.concat "," (List.map string_of_int forced))

(* ------------------------------------------------------------------ *)
(* Figure 9: the symmetry-based supervertex transformation             *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "Figure 9 — symmetry supervertex transformation";
  let g = Dpa_workload.Examples.fig9_sgraph () in
  print_endline "s-graph: {A,B,E} <-> {C,D} complete bipartite (strongly connected)";
  let g' = Dpa_seq.Sgraph.copy g in
  let forced = Dpa_seq.Mfvs.reduce g' in
  Printf.printf "classical reductions alone: forced = {%s}, %d vertices remain\n"
    (String.concat "," (List.map string_of_int forced))
    (List.length (Dpa_seq.Sgraph.alive_vertices g'));
  let groups = Dpa_seq.Mfvs.symmetrize g' in
  List.iter
    (fun members ->
      Printf.printf "supervertex {%s} weight %d\n"
        (String.concat ","
           (List.map (fun v -> String.make 1 "ABCDE".[v]) (List.sort compare members)))
        (List.length members))
    groups;
  let r = Dpa_seq.Mfvs.solve g in
  Printf.printf "FVS with symmetry: {%s} (weight %d) — ABE is bypassed, CD absorbs the loop\n"
    (String.concat "," (List.map (fun v -> String.make 1 "ABCDE".[v]) r.Dpa_seq.Mfvs.fvs))
    (List.length r.Dpa_seq.Mfvs.fvs);
  let r' = Dpa_seq.Mfvs.solve ~symmetry:false g in
  Printf.printf "FVS without symmetry: {%s} (weight %d)\n"
    (String.concat "," (List.map (fun v -> String.make 1 "ABCDE".[v]) r'.Dpa_seq.Mfvs.fvs))
    (List.length r'.Dpa_seq.Mfvs.fvs)

(* ------------------------------------------------------------------ *)
(* Figure 10: BDD variable ordering                                    *)
(* ------------------------------------------------------------------ *)

let order_names net =
  [ ("reverse topological (paper)", Dpa_bdd.Ordering.reverse_topological net);
    ("topological", Dpa_bdd.Ordering.topological net);
    ("disturbed grouping", Dpa_bdd.Ordering.disturbed net);
    ("declaration", Dpa_bdd.Ordering.declaration net) ]

let fig10 () =
  section "Figure 10 — BDD variable ordering on P = x1x2x3, Q = x3x4, R = P+Q+x5";
  let net = Dpa_workload.Examples.fig10 () in
  let t =
    Table.create
      ~columns:
        [ ("ordering", Table.Left); ("variables (top..bottom)", Table.Left);
          ("BDD nodes", Table.Right); ("paper", Table.Right) ]
  in
  let paper = [ "7"; "11"; "9"; "-" ] in
  List.iter2
    (fun (name, order) paper_nodes ->
      let b = Dpa_bdd.Build.of_netlist ~order net in
      let vars =
        String.concat ","
          (Array.to_list (Array.map (fun pos -> Printf.sprintf "x%d" (pos + 1)) order))
      in
      Table.add_row t
        [ name; vars;
          Table.cell_int (Dpa_bdd.Build.shared_output_size net b); paper_nodes ])
    (order_names net) paper;
  Table.print t;
  print_endline
    "(The paper draws 9 nodes for the disturbed order; the fully shared ROBDD\n\
     of the reconstructed circuit needs 8 — the ranking, which is the claim,\n\
     is identical.)";
  (* the heuristic at scale: generated control blocks *)
  Printf.printf "\nGenerated control blocks (shared BDD nodes over all gates):\n";
  let t2 =
    Table.create
      ~columns:
        [ ("circuit", Table.Left); ("reverse topo", Table.Right); ("topological", Table.Right);
          ("disturbed", Table.Right); ("declaration", Table.Right); ("random", Table.Right) ]
  in
  let bench_net seed =
    Dpa_synth.Opt.optimize
      (Dpa_workload.Generator.combinational
         { Dpa_workload.Generator.default with
           Dpa_workload.Generator.seed;
           n_inputs = 36;
           n_outputs = 9;
           gates_per_output = 12;
           support = 10 })
  in
  List.iter
    (fun seed ->
      let net = bench_net seed in
      let size order = Dpa_bdd.Build.shared_all_size net (Dpa_bdd.Build.of_netlist ~order net) in
      let rng = Dpa_util.Rng.create (seed * 7) in
      Table.add_row t2
        [ Printf.sprintf "ctrl-%d" seed;
          Table.cell_int (size (Dpa_bdd.Ordering.reverse_topological net));
          Table.cell_int (size (Dpa_bdd.Ordering.topological net));
          Table.cell_int (size (Dpa_bdd.Ordering.disturbed net));
          Table.cell_int (size (Dpa_bdd.Ordering.declaration net));
          Table.cell_int (size (Dpa_bdd.Ordering.shuffled rng net)) ])
    [ 1; 2; 3; 4; 5 ];
  Table.print t2;
  (* refinement headroom over the paper's heuristic *)
  let net = bench_net 1 in
  let seed_order = Dpa_bdd.Ordering.reverse_topological net in
  let refined = Dpa_bdd.Reorder.refine net seed_order in
  Printf.printf
    "\nAdjacent-swap refinement of the paper's order on ctrl-1: %d -> %d nodes \
     (%d swaps, %d passes)\n"
    refined.Dpa_bdd.Reorder.initial_nodes refined.Dpa_bdd.Reorder.nodes
    refined.Dpa_bdd.Reorder.swaps_accepted refined.Dpa_bdd.Reorder.passes

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                      *)
(* ------------------------------------------------------------------ *)

let run_profiles ~timed profiles =
  List.map
    (fun p ->
      let net = Dpa_workload.Profiles.build_comb p in
      let config =
        { Flow.default_config with
          Flow.pair_limit = p.Dpa_workload.Profiles.pair_limit;
          timing = (if timed then Some Flow.default_timing else None) }
      in
      (p.Dpa_workload.Profiles.description, Flow.compare_ma_mp ~config net))
    profiles

let paper_table1 =
  [ ("Industry 1", 1849, 12.47, 1970, 9.65, 6.5, 22.6);
    ("Industry 2", 2272, 13.74, 2348, 14.13, 3.3, -2.8);
    ("Industry 3", 1589, 11.77, 1699, 8.56, 6.9, 27.3);
    ("apex7", 394, 3.71, 443, 2.98, 12.4, 19.5);
    ("frg1", 98, 1.30, 145, 0.86, 48.0, 34.1);
    ("x1", 404, 2.57, 421, 2.34, 4.2, 8.9);
    ("x3", 1372, 7.49, 1390, 6.25, 1.3, 16.6) ]

let paper_table2 =
  [ ("apex7", 452, 3.72, 485, 3.04, 7.3, 18.3);
    ("frg1", 98, 3.20, 147, 1.91, 50.0, 40.3);
    ("x1", 406, 7.67, 433, 6.10, 6.7, 20.5);
    ("x3", 2005, 70.13, 1601, 26.61, -20.0, 62.0) ]

let print_paper_reference title rows avg_pen avg_sav =
  Printf.printf "\nPaper reference (%s):\n" title;
  let t =
    Table.create
      ~columns:
        [ ("Ckt", Table.Left); ("MA Size", Table.Right); ("MA Pwr", Table.Right);
          ("MP Size", Table.Right); ("MP Pwr", Table.Right);
          ("% Area Pen.", Table.Right); ("% Pwr Sav.", Table.Right) ]
  in
  List.iter
    (fun (name, mas, map_, mps, mpp, pen, sav) ->
      Table.add_row t
        [ name; Table.cell_int mas; Table.cell_float map_; Table.cell_int mps;
          Table.cell_float mpp; Table.cell_float ~decimals:1 pen;
          Table.cell_float ~decimals:1 sav ])
    rows;
  Table.add_separator t;
  Table.add_row t
    [ "Average"; ""; ""; ""; ""; Table.cell_float ~decimals:1 avg_pen;
      Table.cell_float ~decimals:1 avg_sav ];
  Table.print t

let table1 () =
  section "Table 1 — synthesis at input signal probability 0.5";
  let rows = run_profiles ~timed:false Dpa_workload.Profiles.table1 in
  print_string (Dpa_core.Report.table ~title:"Measured (this reproduction):" rows);
  print_paper_reference "Table 1" paper_table1 11.8 18.0;
  print_endline
    "Power units differ (ours are switched capacitance units, the paper's are\n\
     mA from PowerMill); the comparison targets are the savings/penalty\n\
     percentages and their distribution across circuits."

let table1_probs () =
  section
    "Table 1 sensitivity — the paper: \"different signal probabilities yielded \
     similar results\"";
  let t =
    Table.create
      ~columns:
        [ ("input p", Table.Right); ("avg % area pen.", Table.Right);
          ("avg % pwr sav.", Table.Right); ("min sav.", Table.Right);
          ("max sav.", Table.Right) ]
  in
  List.iter
    (fun p ->
      let rows =
        List.map
          (fun prof ->
            let net =
              Dpa_workload.Profiles.build_comb prof
            in
            let config =
              { Flow.default_config with
                Flow.input_prob = p;
                pair_limit = prof.Dpa_workload.Profiles.pair_limit }
            in
            Flow.compare_ma_mp ~config net)
          Dpa_workload.Profiles.table2
        (* the public-domain subset keeps the sweep quick *)
      in
      let savs = List.map (fun r -> r.Flow.power_saving_pct) rows in
      let pens = List.map (fun r -> r.Flow.area_penalty_pct) rows in
      Table.add_row t
        [ Table.cell_float ~decimals:2 p;
          Table.cell_float ~decimals:1 (Dpa_util.Stats.mean pens);
          Table.cell_float ~decimals:1 (Dpa_util.Stats.mean savs);
          Table.cell_float ~decimals:1 (List.fold_left Float.min infinity savs);
          Table.cell_float ~decimals:1 (List.fold_left Float.max neg_infinity savs) ])
    [ 0.3; 0.4; 0.5; 0.6; 0.7 ];
  Table.print t;
  print_endline
    "(Public-domain subset: apex7, frg1, x1, x3.) The minimum-power phase\n\
     assignment keeps winning across the input-statistics sweep, matching the\n\
     paper's parenthetical claim for Table 1."

let table2 () =
  section "Table 2 — timed synthesis (resizing to meet the clock), input p = 0.5";
  let rows = run_profiles ~timed:true Dpa_workload.Profiles.table2 in
  print_string (Dpa_core.Report.table ~title:"Measured (this reproduction):" rows);
  List.iter
    (fun (_, r) ->
      Printf.printf "  %s: clock %.2f, MA %s (delay %.2f), MP %s (delay %.2f)\n"
        r.Flow.circuit
        (match r.Flow.clock with Some c -> c | None -> nan)
        (if r.Flow.ma.Flow.met then "met" else "VIOLATED")
        r.Flow.ma.Flow.critical_delay
        (if r.Flow.mp.Flow.met then "met" else "VIOLATED")
        r.Flow.mp.Flow.critical_delay)
    rows;
  print_paper_reference "Table 2" paper_table2 8.6 35.3

(* ------------------------------------------------------------------ *)
(* Case study: structured circuits (decode / arbitrate / add) — the     *)
(* workloads the paper's introduction motivates domino with             *)
(* ------------------------------------------------------------------ *)

let casestudy () =
  section "Case study — structured circuits through the flow (input p = 0.5)";
  let t =
    Table.create
      ~columns:
        [ ("Ckt", Table.Left); ("#PIs", Table.Right); ("#POs", Table.Right);
          ("MA Size", Table.Right); ("MA Pwr", Table.Right); ("MP Size", Table.Right);
          ("MP Pwr", Table.Right); ("% Pwr Sav.", Table.Right); ("MP phases", Table.Left) ]
  in
  List.iter
    (fun net ->
      let r = Flow.compare_ma_mp net in
      let phases = Phase.to_string r.Flow.mp.Flow.assignment in
      let phases =
        if String.length phases > 20 then String.sub phases 0 17 ^ "..." else phases
      in
      Table.add_row t
        [ r.Flow.circuit; Table.cell_int r.Flow.n_pi; Table.cell_int r.Flow.n_po;
          Table.cell_int r.Flow.ma.Flow.size; Table.cell_float r.Flow.ma.Flow.power;
          Table.cell_int r.Flow.mp.Flow.size; Table.cell_float r.Flow.mp.Flow.power;
          Table.cell_float ~decimals:1 r.Flow.power_saving_pct; phases ])
    [ Dpa_workload.Examples.decoder ~bits:4;
      Dpa_workload.Examples.priority_arbiter ~width:8;
      Dpa_workload.Examples.carry_chain ~width:6 ];
  Table.print t;
  print_endline
    "A one-hot decoder is already power-optimal all-positive (every output\n\
     fires with probability 2^-bits); the arbiter's busy/low-priority grants\n\
     and the adder's carry chain give the optimizer real phase decisions."

(* ------------------------------------------------------------------ *)
(* Sequential suite: the §4.2 pipeline end to end (our extension —      *)
(* the paper's own tables are combinational)                            *)
(* ------------------------------------------------------------------ *)

let seq_table () =
  section "Sequential suite — MFVS partitioning + phase assignment end to end";
  let t =
    Table.create
      ~columns:
        [ ("Ckt", Table.Left); ("#PIs", Table.Right); ("#FFs", Table.Right);
          ("|FVS|", Table.Right); ("groups", Table.Right); ("#outs", Table.Right);
          ("MA Pwr", Table.Right); ("MP Pwr", Table.Right); ("% Pwr Sav.", Table.Right) ]
  in
  let savings = ref [] in
  List.iter
    (fun (seed, n_ffs) ->
      let sn =
        Dpa_workload.Generator.sequential
          { Dpa_workload.Generator.default with
            Dpa_workload.Generator.seed;
            n_inputs = 14;
            n_outputs = 4;
            gates_per_output = 9;
            and_bias = 0.4;
            inverter_prob = 0.1;
            reuse_fraction = 0.4 }
          ~n_ffs
      in
      let r = Dpa_core.Seq_flow.compare_ma_mp sn in
      savings := r.Dpa_core.Seq_flow.comb.Flow.power_saving_pct :: !savings;
      Table.add_row t
        [ Printf.sprintf "seq-%d" seed;
          Table.cell_int (Dpa_seq.Seq_netlist.n_real_inputs sn);
          Table.cell_int n_ffs;
          Table.cell_int (List.length r.Dpa_core.Seq_flow.fvs);
          Table.cell_int r.Dpa_core.Seq_flow.supervertices;
          Table.cell_int r.Dpa_core.Seq_flow.comb.Flow.n_po;
          Table.cell_float r.Dpa_core.Seq_flow.comb.Flow.ma.Flow.power;
          Table.cell_float r.Dpa_core.Seq_flow.comb.Flow.mp.Flow.power;
          Table.cell_float ~decimals:1 r.Dpa_core.Seq_flow.comb.Flow.power_saving_pct ])
    [ (1, 6); (4, 6); (8, 8); (16, 8); (26, 10) ];
  Table.add_separator t;
  Table.add_row t
    [ "Average"; ""; ""; ""; ""; ""; ""; "";
      Table.cell_float ~decimals:1 (Dpa_util.Stats.mean !savings) ];
  Table.print t;
  print_endline
    "Every flip-flop's D pin receives a phase of its own; steady-state Q\n\
     probabilities come from the MFVS partition (cut flip-flops at 0.5,\n\
     the rest propagated exactly through the acyclic remainder)."

(* ------------------------------------------------------------------ *)
(* Validation: estimator vs simulator across the Table 1 suite          *)
(* ------------------------------------------------------------------ *)

let validate () =
  section "Validation — BDD estimator vs PowerMill-substitute, Table 1 suite";
  let t =
    Table.create
      ~columns:
        [ ("Ckt", Table.Left); ("phases", Table.Left); ("estimated", Table.Right);
          ("simulated", Table.Right); ("error %", Table.Right) ]
  in
  List.iter
    (fun p ->
      let net =
        Dpa_synth.Opt.optimize
          (Dpa_workload.Profiles.build_comb p)
      in
      let probs = Array.make (Netlist.num_inputs net) 0.5 in
      (* validate on the minimum-power realization, the one the tables
         report; exhaustive search is skipped here (the assignment is not
         the point, the estimate is) *)
      let assignment =
        Dpa_synth.Min_area.local_search net (* deterministic, cheap *)
      in
      let mapped = Mapped.map (Inverterless.realize net assignment) in
      let est = (Estimate.of_mapped ~input_probs:probs mapped).Estimate.total in
      let rng = Dpa_util.Rng.create 2024 in
      let sim =
        (Estimate.of_activity mapped
           (Dpa_sim.Simulator.measure ~cycles:20_000 rng ~input_probs:probs mapped))
          .Estimate.total
      in
      let negs = Phase.count_negative assignment in
      Table.add_row t
        [ p.Dpa_workload.Profiles.name;
          Printf.sprintf "%d neg / %d" negs (Array.length assignment);
          Table.cell_float ~decimals:3 est;
          Table.cell_float ~decimals:3 sim;
          Table.cell_float ~decimals:2
            (Dpa_util.Stats.relative_error ~expected:est ~actual:sim *. 100.0) ])
    Dpa_workload.Profiles.table1;
  Table.print t;
  print_endline
    "The paper measured with PowerMill because its estimator needed external\n\
     validation; here the cycle-accurate simulator plays that role. Domino's\n\
     glitch-freedom (Property 2.2) is why a logic-level estimate can be this\n\
     accurate."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation — design choices called out in DESIGN.md";
  (* 1: search strategy comparison *)
  Printf.printf "1. Search strategies (6-output control block):\n";
  let p =
    { Dpa_workload.Generator.default with
      Dpa_workload.Generator.seed = 77;
      n_inputs = 24;
      n_outputs = 6;
      gates_per_output = 10;
      and_bias = 0.35;
      inverter_prob = 0.1;
      reuse_fraction = 0.4 }
  in
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Generator.combinational p) in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  let run strategy name =
    let config =
      { (Dpa_phase.Optimizer.default_config ~input_probs:probs) with
        Dpa_phase.Optimizer.strategy }
    in
    let r = Dpa_phase.Optimizer.minimize_power config net in
    Printf.printf "   %-12s power %8.3f  size %4d  measurements %4d\n" name
      r.Dpa_phase.Optimizer.power r.Dpa_phase.Optimizer.size
      r.Dpa_phase.Optimizer.measurements
  in
  run Dpa_phase.Optimizer.Exhaustive "exhaustive";
  run Dpa_phase.Optimizer.Greedy "greedy";
  run (Dpa_phase.Optimizer.Annealing Dpa_phase.Annealing.default_params) "annealing";
  (* 2: gate-type penalty *)
  Printf.printf "\n2. Gate-type penalty P_i (series-transistor surcharge):\n";
  List.iter
    (fun per_stage ->
      let library =
        if per_stage = 0.0 then Dpa_domino.Library.default
        else Dpa_domino.Library.with_series_penalty ~per_stage Dpa_domino.Library.default
      in
      let config =
        { (Dpa_phase.Optimizer.default_config ~input_probs:probs) with
          Dpa_phase.Optimizer.library }
      in
      let r = Dpa_phase.Optimizer.minimize_power config net in
      (* re-price the chosen assignment with the unpenalized library to
         compare true switching *)
      let mapped = Mapped.map (Inverterless.realize net r.Dpa_phase.Optimizer.assignment) in
      let plain = Estimate.of_mapped ~input_probs:probs mapped in
      Printf.printf
        "   P=%.2f/stage: priced power %8.3f, raw switching %8.3f, phases %s\n" per_stage
        r.Dpa_phase.Optimizer.power plain.Estimate.domino_switching
        (Phase.to_string r.Dpa_phase.Optimizer.assignment))
    [ 0.0; 0.25; 1.0 ];
  (* 3: MFVS symmetry on duplicated register banks (the structure domino
     duplication creates) and on generated sequential circuits *)
  Printf.printf
    "\n3. Enhanced MFVS (symmetry) vs classical on duplicated register banks:\n";
  List.iter
    (fun (banks, width) ->
      let sn = Dpa_workload.Examples.replicated_bank_ring ~banks ~width in
      let g = Dpa_seq.Sgraph.of_seq_netlist sn in
      let with_sym = Dpa_seq.Mfvs.solve ~symmetry:true g in
      let without = Dpa_seq.Mfvs.solve ~symmetry:false g in
      Printf.printf
        "   %d banks x %d FFs: |FVS| with symmetry %d (%d supervertices, %d greedy picks), \
         without %d (%d picks)\n"
        banks width
        (List.length with_sym.Dpa_seq.Mfvs.fvs)
        (List.length with_sym.Dpa_seq.Mfvs.supervertices)
        with_sym.Dpa_seq.Mfvs.greedy_picks
        (List.length without.Dpa_seq.Mfvs.fvs)
        without.Dpa_seq.Mfvs.greedy_picks)
    [ (3, 3); (4, 4); (5, 6) ];
  Printf.printf "   Partition accuracy vs exact Markov steady state (4-FF circuits):\n";
  List.iter
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
      let exact = Dpa_seq.Steady_state.analyze ~input_probs:(Array.make 5 0.5) sn in
      let report label part =
        let errors =
          Array.to_list
            (Array.mapi
               (fun k p -> Float.abs (p -. exact.Dpa_seq.Steady_state.ff_probs.(k)))
               part.Dpa_seq.Partition.ff_probs)
        in
        Printf.printf "     seed %3d %-12s mean |err| %.4f  max %.4f  (|FVS| %d)\n" seed
          label (Dpa_util.Stats.mean errors)
          (List.fold_left Float.max 0.0 errors)
          (List.length part.Dpa_seq.Partition.fvs)
      in
      report "one pass" (Dpa_seq.Partition.probabilities ~input_probs:(Array.make 5 0.5) sn);
      report "refined x8"
        (Dpa_seq.Partition.probabilities ~refine:8 ~input_probs:(Array.make 5 0.5) sn))
    [ 4; 8; 16 ];
  Printf.printf "   Generated sequential circuits (no forced duplication):\n";
  List.iter
    (fun seed ->
      let sn =
        Dpa_workload.Generator.sequential
          { Dpa_workload.Generator.default with Dpa_workload.Generator.seed } ~n_ffs:10
      in
      let g = Dpa_seq.Sgraph.of_seq_netlist sn in
      let with_sym = Dpa_seq.Mfvs.solve ~symmetry:true g in
      let without = Dpa_seq.Mfvs.solve ~symmetry:false g in
      Printf.printf "   seed %3d: |FVS| with symmetry %d, without %d, supervertices %d\n" seed
        (List.length with_sym.Dpa_seq.Mfvs.fvs)
        (List.length without.Dpa_seq.Mfvs.fvs)
        (List.length with_sym.Dpa_seq.Mfvs.supervertices))
    [ 1; 2; 3; 4; 5 ];
  (* 4: k-tuple cost extension (paper §4.1's "more than a pair") *)
  Printf.printf "\n4. Cost function over k-tuples (pairwise = the paper's heuristic):\n";
  let base = Dpa_bdd.Build.probabilities ~input_probs:probs net in
  let cost = Dpa_phase.Cost.make net in
  List.iter
    (fun (kk, vectors) ->
      let measure = Dpa_phase.Measure.create ~input_probs:probs net in
      let r =
        Dpa_phase.Tuple_search.run ~k:kk ~vectors_per_tuple:vectors measure ~cost
          ~base_probs:base
      in
      Printf.printf
        "   k=%d (top %2d vectors/tuple): power %8.3f  commits %2d  tuples %3d  measurements %3d\n"
        kk vectors r.Dpa_phase.Tuple_search.power r.Dpa_phase.Tuple_search.commits
        r.Dpa_phase.Tuple_search.tuples_considered
        (Dpa_phase.Measure.evaluations measure))
    [ (2, 1); (3, 1); (3, 4); (6, 16) ];
  (* 5: timing-integrated phase assignment (the paper's §6 future work) *)
  Printf.printf
    "\n5. Timing-integrated phase assignment (paper §6 future direction):\n";
  let ma_assignment = Dpa_synth.Min_area.best net in
  let ma_mapped = Mapped.map (Inverterless.realize net ma_assignment) in
  let unsized = (Dpa_timing.Sta.analyze ma_mapped).Dpa_timing.Sta.critical_delay in
  List.iter
    (fun factor ->
      let clock = factor *. unsized in
      (* sequential: pick phases for unsized power, then resize *)
      let seq_config = Dpa_phase.Optimizer.default_config ~input_probs:probs in
      let seq = Dpa_phase.Optimizer.minimize_power seq_config net in
      let seq_mapped = Mapped.map (Inverterless.realize net seq.Dpa_phase.Optimizer.assignment) in
      let seq_resize = Dpa_timing.Resize.meet ~clock seq_mapped in
      let seq_power = (Estimate.of_mapped ~input_probs:probs seq_mapped).Estimate.total in
      (* integrated: price every candidate after timing closure *)
      let ta_config = Dpa_phase.Timing_aware.default_config ~input_probs:probs ~clock in
      let ta = Dpa_phase.Timing_aware.minimize ta_config net in
      Printf.printf
        "   clock %.2f (%.0f%% of MA): phase-then-resize %8.3f (%s, %s)  integrated %8.3f (%s, %s)\n"
        clock (factor *. 100.0) seq_power
        (Phase.to_string seq.Dpa_phase.Optimizer.assignment)
        (if seq_resize.Dpa_timing.Resize.met then "met" else "VIOLATED")
        ta.Dpa_phase.Timing_aware.power
        (Phase.to_string ta.Dpa_phase.Timing_aware.assignment)
        (if ta.Dpa_phase.Timing_aware.met then "met" else "VIOLATED"))
    [ 1.0; 0.6; 0.4 ];
  (* 6: the intro's "domino costs up to 4x static" motivation, kept honest
     by simulating static glitches (which the zero-delay figure misses and
     domino physically cannot have, Property 2.2) *)
  Printf.printf
    "\n6. Domino vs static CMOS switching power (intro motivation):\n";
  List.iter
    (fun name ->
      match Dpa_workload.Profiles.find name with
      | None -> ()
      | Some prof ->
        let pnet =
          Dpa_synth.Opt.optimize
            (Dpa_workload.Profiles.build_comb prof)
        in
        let pprobs = Array.make (Netlist.num_inputs pnet) 0.5 in
        let ratio = Dpa_power.Static_model.domino_to_static_ratio ~input_probs:pprobs pnet in
        let rng = Dpa_util.Rng.create 13 in
        let glitch =
          Dpa_sim.Static_sim.measure ~cycles:3000 rng ~input_probs:pprobs pnet
        in
        Printf.printf
          "   %-10s domino/static(zero-delay) %.2fx | static glitch factor %.2fx -> \
           domino/static(real) %.2fx\n"
          name ratio glitch.Dpa_sim.Static_sim.glitch_ratio
          (ratio /. Float.max glitch.Dpa_sim.Static_sim.glitch_ratio 1e-9))
    [ "apex7"; "frg1"; "x1" ];
  (* 7: two-level ISOP resynthesis ahead of phase assignment *)
  Printf.printf "\n7. Two-level (ISOP) resynthesis before phase assignment:\n";
  (match Dpa_workload.Profiles.find "x1" with
  | None -> ()
  | Some prof ->
    let raw = Dpa_workload.Profiles.build_comb prof in
    let config =
      { Flow.default_config with Flow.pair_limit = prof.Dpa_workload.Profiles.pair_limit }
    in
    let multi = Flow.compare_ma_mp ~config raw in
    let flat, stats =
      Dpa_synth.Resynth.two_level ~max_support:12 (Dpa_synth.Opt.optimize raw)
    in
    let flat_result = Flow.compare_ma_mp ~config flat in
    let fact, fstats =
      Dpa_synth.Resynth.factored ~max_support:12 (Dpa_synth.Opt.optimize raw)
    in
    let fact_result = Flow.compare_ma_mp ~config fact in
    Printf.printf
      "   multi-level: MA %4d cells / %8.2f pwr | MP %4d / %8.2f (%.1f%% saving)\n"
      multi.Flow.ma.Flow.size multi.Flow.ma.Flow.power multi.Flow.mp.Flow.size
      multi.Flow.mp.Flow.power multi.Flow.power_saving_pct;
    Printf.printf
      "   two-level:   MA %4d cells / %8.2f pwr | MP %4d / %8.2f (%.1f%% saving)  \
       [%d/%d outputs collapsed, %d cubes, %d literals]\n"
      flat_result.Flow.ma.Flow.size flat_result.Flow.ma.Flow.power
      flat_result.Flow.mp.Flow.size flat_result.Flow.mp.Flow.power
      flat_result.Flow.power_saving_pct stats.Dpa_synth.Resynth.collapsed_outputs
      (stats.Dpa_synth.Resynth.collapsed_outputs + stats.Dpa_synth.Resynth.kept_outputs)
      stats.Dpa_synth.Resynth.cubes stats.Dpa_synth.Resynth.literals;
    Printf.printf
      "   factored:    MA %4d cells / %8.2f pwr | MP %4d / %8.2f (%.1f%% saving)  \
       [%d literals after algebraic factoring]\n"
      fact_result.Flow.ma.Flow.size fact_result.Flow.ma.Flow.power
      fact_result.Flow.mp.Flow.size fact_result.Flow.mp.Flow.power
      fact_result.Flow.power_saving_pct fstats.Dpa_synth.Resynth.literals);
  (* 8: compound (OR-of-AND) domino cells *)
  Printf.printf "\n8. Compound OR-of-AND domino cells (single-stage pulldown networks):\n";
  (match Dpa_workload.Profiles.find "apex7" with
  | None -> ()
  | Some prof ->
    let raw = Dpa_workload.Profiles.build_comb prof in
    let plain = Flow.compare_ma_mp raw in
    let compound_lib = Dpa_domino.Library.with_compound Dpa_domino.Library.default in
    let compound_cfg = { Flow.default_config with Flow.library = compound_lib } in
    let fancy = Flow.compare_ma_mp ~config:compound_cfg raw in
    Printf.printf
      "   simple cells:   MA %4d cells / %8.2f pwr | MP %4d / %8.2f (%.1f%% saving)\n"
      plain.Flow.ma.Flow.size plain.Flow.ma.Flow.power plain.Flow.mp.Flow.size
      plain.Flow.mp.Flow.power plain.Flow.power_saving_pct;
    Printf.printf
      "   compound cells: MA %4d cells / %8.2f pwr | MP %4d / %8.2f (%.1f%% saving)\n"
      fancy.Flow.ma.Flow.size fancy.Flow.ma.Flow.power fancy.Flow.mp.Flow.size
      fancy.Flow.mp.Flow.power fancy.Flow.power_saving_pct);
  (* 9: estimator vs simulator cross-check at scale *)
  Printf.printf "\n9. BDD estimator vs PowerMill-substitute simulator (apex7 profile):\n";
  (match Dpa_workload.Profiles.find "apex7" with
  | None -> ()
  | Some prof ->
    let net =
      Dpa_synth.Opt.optimize
        (Dpa_workload.Profiles.build_comb prof)
    in
    let probs = Array.make (Netlist.num_inputs net) 0.5 in
    let a = Phase.all_positive (Netlist.num_outputs net) in
    let mapped = Mapped.map (Inverterless.realize net a) in
    let est = Estimate.of_mapped ~input_probs:probs mapped in
    let rng = Dpa_util.Rng.create 5 in
    let meas =
      Estimate.of_activity mapped
        (Dpa_sim.Simulator.measure ~cycles:20_000 rng ~input_probs:probs mapped)
    in
    Printf.printf "   estimated %.3f, simulated %.3f, relative error %.2f%%\n"
      est.Estimate.total meas.Estimate.total
      (Dpa_util.Stats.relative_error ~expected:est.Estimate.total
         ~actual:meas.Estimate.total
      *. 100.0))
