(* The flow workloads: sweeps of committed corpus circuits through
   [Corpus.run_spec], the call [dominoflow corpus] makes, gated by the
   committed baselines. The traced mode re-runs each circuit as the
   public calls [Flow.compare_ma_mp_probs] and [Seq_flow.compare_ma_mp]
   compose, one stage at a time, and splits the time by layer. *)

open Common
module Corpus = Dpa_workload.Corpus
module Profiles = Dpa_workload.Profiles
module Flow = Dpa_core.Flow
module Engine = Dpa_power.Engine
module Trace = Dpa_obs.Trace
module Netlist = Dpa_logic.Netlist
module Par = Dpa_util.Par

type circuit = { spec : Corpus.spec; baseline : Corpus.outcome }

let baseline_dir = "data/baselines"

let manifest_of name =
  match Corpus.manifest_of_string name with
  | Some m -> m
  | None -> failwith ("unknown manifest " ^ name)

let spec_of ~manifest name =
  match Corpus.find_spec (manifest_of manifest) name with
  | Some s -> s
  | None -> failwith (Printf.sprintf "%s is not in the %s manifest" name manifest)

let node_cap (spec : Corpus.spec) =
  Option.bind spec.Corpus.budget (fun b -> b.Engine.max_bdd_nodes)

(* The budgets are the manifest's own; the record in workloads.json is
   checked against them so it cannot drift. *)
let load_circuits cfg =
  List.map
    (fun c ->
      let name = J.to_string (J.member "name" c) in
      let spec = spec_of ~manifest:(J.to_string (J.member "manifest" c)) name in
      let recorded =
        match J.member_opt "max_bdd_nodes" c with
        | None | Some J.Null -> None
        | Some v -> Some (J.to_int v)
      in
      if recorded <> node_cap spec then
        failwith (Printf.sprintf "%s: workloads.json disagrees with the manifest's node cap" name);
      match Corpus.read_baseline ~dir:baseline_dir name with
      | Some baseline -> { spec; baseline }
      | None -> failwith ("no committed baseline for " ^ name))
    (J.to_list (J.member "circuits" cfg))

(* Load baselines, generate every circuit, start the pool. *)
let setup_once cfg =
  let t0 = now () in
  let circuits = load_circuits cfg in
  List.iter (fun c -> ignore (Profiles.build c.spec.Corpus.profile)) circuits;
  let pool = Par.create ~jobs:(J.to_int (J.member "jobs" cfg)) in
  (now () -. t0, circuits, pool)

(* Times of [k] further set-up rounds whose results are dropped, each
   followed by the pause. *)
let extra_setups cfg k =
  List.init k (fun _ ->
      let dt, _, pool = setup_once cfg in
      Par.shutdown pool;
      Unix.sleepf setup_pause_s;
      dt)

(* ---- one circuit through run_spec ------------------------------------ *)

type op = { seconds : float; outcome : Corpus.outcome option; problems : string list }

let report_problems name problems =
  List.iter (fun p -> Printf.eprintf "%s: %s\n%!" name p) problems

let run_one ~pool c =
  let t0 = now () in
  let name = c.spec.Corpus.profile.Profiles.name in
  let op =
    match Corpus.run_spec ~par:pool c.spec with
    | o ->
      {
        seconds = now () -. t0;
        outcome = Some o;
        problems = Corpus.diff ~perf_slack:0. ~expected:c.baseline ~actual:o ();
      }
    | exception e ->
      { seconds = now () -. t0; outcome = None; problems = [ Printexc.to_string e ] }
  in
  Printf.eprintf "%s: %.3f s\n%!" name op.seconds;
  report_problems name op.problems;
  op

let failed op = op.problems <> []

(* MP output cones priced exactly or after reordering, and all MP cones. *)
let cone_counts (o : Corpus.outcome) =
  if o.Corpus.ladder = "exact" then (o.Corpus.n_po, o.Corpus.n_po)
  else
    Scanf.sscanf o.Corpus.ladder "%dex+%dre+%dsim" (fun ex re sim -> (ex + re, ex + re + sim))

let mean f xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left (fun s x -> s +. f x) 0. xs /. float_of_int (List.length xs)

let quality outcomes =
  let good, all =
    List.fold_left
      (fun (g, a) o ->
        let g', a' = cone_counts o in
        (g + g', a + a'))
      (0, 0) outcomes
  in
  ( mean (fun o -> o.Corpus.mp_power /. o.Corpus.ma_power) outcomes,
    mean (fun o -> float_of_int o.Corpus.mp_size /. float_of_int o.Corpus.ma_size) outcomes,
    ratio (float_of_int good) (float_of_int all) )

(* ---- untraced: end-to-end metrics -------------------------------------- *)

(* A run makes exactly one sweep, so the latency metrics keep one
   definition however fast a sweep is. Every set-up round runs before the
   sweep, in the same state of the process; the last round's circuits and
   pool carry the sweep. *)
let run cfg =
  let before = extra_setups cfg (setup_rounds cfg - 1) in
  let setup_last, circuits, pool = setup_once cfg in
  let t0 = now () in
  let ops = List.map (run_one ~pool) circuits in
  let wall = now () -. t0 in
  Par.shutdown pool;
  let setup_s = Harness.median (Array.of_list (setup_last :: before)) in
  let n_ops = List.length ops in
  let n_failed = List.length (List.filter failed ops) in
  let power_ratio, area_ratio, exact_share =
    quality (List.filter_map (fun op -> op.outcome) ops)
  in
  (* The operation a user waits for is the sweep, the call
     [dominoflow corpus] makes: per-circuit times are left to the traced
     run, where they are [circuit.<name>.s]. *)
  let e =
    {
      setup_s;
      sweep_s = wall;
      latencies_ms = [| (if n_failed > 0 then Float.infinity else wall *. 1000.) |];
      slices = 1;
      req_per_s = float_of_int (n_ops - n_failed) /. wall;
      mp_power_ratio = power_ratio;
      mp_area_ratio = area_ratio;
      exact_cone_share = exact_share;
      ok_ratio = float_of_int (n_ops - n_failed) /. float_of_int n_ops;
      cap_ms = wall *. 1000.;
    }
  in
  print_result ~correct:(n_failed = 0) ~attempted:n_ops ~failed:n_failed (end_to_end e)

(* ---- traced: the staged pipeline ---------------------------------------- *)

let stage a name f =
  let t0 = Clock.now_ns () in
  let r = Trace.with_span ("bench." ^ name) f in
  let dt = float_of_int (Clock.elapsed_ns ~since:t0) *. 1e-9 in
  bump a (name ^ "_s") dt;
  bump a "stages_s" dt;
  r

(* Flow.realize_and_price, untimed. *)
let price a ~pool ~budget ~input_probs net assignment =
  let fc = Flow.default_config in
  let mapped =
    stage a "realize.map" (fun () ->
        Dpa_domino.Mapped.map ~library:fc.Flow.library
          (Dpa_synth.Inverterless.realize net assignment))
  in
  ignore (stage a "timing.sta" (fun () -> Dpa_timing.Sta.analyze mapped));
  let est =
    stage a "power.estimate" (fun () ->
        Engine.estimate ~par:pool ?budget ~input_probs mapped)
  in
  (Dpa_domino.Mapped.size mapped, est)

(* Flow.compare_ma_mp_probs with Corpus.run_spec's configuration. *)
let compare_staged a ~pool ~budget ~pair_limit ~input_probs raw =
  let fc = Flow.default_config in
  let net = stage a "synth.opt" (fun () -> Dpa_synth.Opt.optimize raw) in
  let ma_assignment =
    stage a "ma.search" (fun () ->
        Dpa_synth.Min_area.best ~exhaustive_limit:fc.Flow.exhaustive_limit net)
  in
  let ma = price a ~pool ~budget ~input_probs net ma_assignment in
  let opt =
    stage a "phase.search" (fun () ->
        Dpa_phase.Optimizer.minimize_power
          {
            Dpa_phase.Optimizer.library = fc.Flow.library;
            input_probs;
            strategy = Dpa_phase.Optimizer.Auto;
            exhaustive_limit = fc.Flow.exhaustive_limit;
            pair_limit;
            seed = fc.Flow.seed;
            budget;
            par = Some pool;
            cancel = fc.Flow.cancel;
          }
          net)
  in
  let mp = price a ~pool ~budget ~input_probs net opt.Dpa_phase.Optimizer.assignment in
  (net, ma, mp, opt.Dpa_phase.Optimizer.assignment)

(* Corpus.seq_core: the combinational core with every D pin promoted to a
   block output. *)
let seq_core sn =
  let core = Netlist.copy (Dpa_seq.Seq_netlist.comb sn) in
  Array.iteri
    (fun k ff ->
      Netlist.add_output core (Printf.sprintf "ff%d.d" k) ff.Dpa_seq.Seq_netlist.data)
    (Dpa_seq.Seq_netlist.ffs sn);
  core

(* Corpus.run_spec, one public call at a time; returns the same outcome. *)
let run_spec_staged a ~pool (spec : Corpus.spec) =
  let profile = spec.Corpus.profile in
  let budget = spec.Corpus.budget and pair_limit = profile.Profiles.pair_limit in
  let p = Flow.default_config.Flow.input_prob in
  let circuit = stage a "workload.build" (fun () -> Profiles.build profile) in
  let (net, (ma_size, ma), (mp_size, mp), mp_assignment), priced, n_ffs, fvs, superv =
    match circuit with
    | Profiles.Comb raw ->
      let input_probs = Array.make (Netlist.num_inputs raw) p in
      (compare_staged a ~pool ~budget ~pair_limit ~input_probs raw, raw, 0, 0, 0)
    | Profiles.Seq sn ->
      let input_probs = Array.make (Dpa_seq.Seq_netlist.n_real_inputs sn) p in
      let part =
        stage a "seq.partition" (fun () ->
            Dpa_seq.Partition.probabilities ~refine:2 ~input_probs sn)
      in
      let mfvs =
        stage a "seq.mfvs" (fun () -> Dpa_seq.Mfvs.solve (Dpa_seq.Sgraph.of_seq_netlist sn))
      in
      let core = stage a "flow.digest" (fun () -> seq_core sn) in
      let input_probs = Array.append input_probs part.Dpa_seq.Partition.ff_probs in
      ( compare_staged a ~pool ~budget ~pair_limit ~input_probs core,
        stage a "flow.digest" (fun () -> seq_core sn),
        Dpa_seq.Seq_netlist.n_ffs sn,
        List.length part.Dpa_seq.Partition.fvs,
        List.length mfvs.Dpa_seq.Mfvs.supervertices )
  in
  let digest, gates =
    stage a "flow.digest" (fun () ->
        (Dpa_logic.Struct_hash.digest priced, Netlist.gate_count priced))
  in
  let reopt = stage a "synth.opt" (fun () -> Dpa_synth.Opt.optimize priced) in
  let stats =
    stage a "realize.map" (fun () ->
        Dpa_synth.Inverterless.stats (Dpa_synth.Inverterless.realize reopt mp_assignment))
  in
  let ma_power = ma.Engine.report.Dpa_power.Estimate.total in
  let mp_power = mp.Engine.report.Dpa_power.Estimate.total in
  {
    Corpus.name = profile.Profiles.name;
    family = Profiles.family_name profile.Profiles.family;
    digest;
    gates;
    n_pi = Netlist.num_inputs net;
    n_po = Netlist.num_outputs net;
    n_ffs;
    fvs;
    supervertices = superv;
    ma_size;
    ma_power;
    mp_size;
    mp_power;
    mp_phases = Array.length mp_assignment;
    phase_flips = Dpa_synth.Phase.count_negative mp_assignment;
    duplicated_gates = stats.Dpa_synth.Inverterless.duplicated_nodes;
    power_saving_pct = Dpa_util.Stats.percent_change ~from:ma_power ~to_:mp_power;
    area_penalty_pct =
      (if ma_size = 0 then 0.
       else float_of_int (mp_size - ma_size) /. float_of_int ma_size *. 100.);
    ladder = Engine.degradation_label mp.Engine.degradation;
    bdd_nodes = mp.Engine.degradation.Engine.bdd_nodes;
    runtime_s = 0.;
  }

(* Per-layer totals from the recorded spans: the split inside the search
   and the ladder, and self time from the span tree. *)
let absorb_trace a =
  let events = List.filter (fun e -> e.Trace.kind = `Span) (Trace.events ()) in
  let spans =
    Array.of_list
      (List.map
         (fun e ->
           { Harness.name = e.Trace.name; start = e.Trace.ts_ns; dur = e.Trace.dur_ns; depth = e.Trace.depth })
         events)
  in
  let self = Harness.self_times spans and parent = Harness.parents spans in
  let s ns = float_of_int ns *. 1e-9 in
  List.iteri
    (fun i e ->
      let d = s e.Trace.dur_ns in
      bump a (Printf.sprintf "self.%s_s" e.Trace.name) (s self.(i));
      match e.Trace.name with
      | "engine.estimate"
        when parent.(i) >= 0 && spans.(parent.(i)).Harness.name = "bench.power.estimate" ->
        bump a "power.estimate_self_s" (s self.(i))
      | "phase.measure.eval" | "phase.measure.prefetch" -> bump a "phase.measure.eval_s" d
      | "engine.node_probabilities" -> bump a "phase.base_probs_s" d
      | "sim.run" -> bump a "sim.run_s" d
      | "engine.cone" -> (
        match List.assoc_opt "built" e.Trace.args with
        | Some (Trace.Bool true) ->
          bump a "engine.cone_built_s" d;
          bump a "engine.cone_built_n" 1.
        | Some (Trace.Bool false) ->
          bump a "engine.cone_failed_s" d;
          bump a "engine.cone_failed_n" 1.
        | _ -> ())
      | _ -> ())
    events;
  List.iter
    (fun name -> bump a "phase.search_self_s" (get a (Printf.sprintf "self.%s_s" name)))
    [ "bench.phase.search"; "phase.optimize"; "phase.greedy.pass" ]

(* One circuit through the staged pipeline with tracing on; the returned
   wall time excludes reading the trace back. *)
let staged_circuit ~pool c =
  let a = acc () in
  let before = Par.stats pool in
  Metrics.reset ();
  Trace.start ();
  let t0 = now () in
  let outcome = run_spec_staged a ~pool c.spec in
  let wall = now () -. t0 in
  Trace.stop ();
  absorb_trace a;
  Trace.clear ();
  absorb_registry a;
  let after = Par.stats pool in
  bump a "par.tasks" (float_of_int (after.Par.tasks - before.Par.tasks));
  bump a "par.steals" (float_of_int (after.Par.steals - before.Par.steals));
  bump a "quality.power_saving_pct" outcome.Corpus.power_saving_pct;
  bump a "quality.area_penalty_pct" outcome.Corpus.area_penalty_pct;
  (wall, outcome, a)

(* The staged pipeline must reproduce the baseline exactly (and, when
   given, the run_spec outcome of the same run). *)
let self_check c ?reference outcome =
  let name = c.spec.Corpus.profile.Profiles.name in
  let problems =
    Corpus.diff ~perf_slack:0. ~expected:c.baseline ~actual:outcome ()
    @
    match reference with
    | Some r -> Corpus.diff ~perf_slack:0. ~expected:r ~actual:outcome ()
    | None -> []
  in
  report_problems (name ^ " (staged)") problems;
  problems = []

let run_traced cfg =
  let _, circuits, pool = setup_once cfg in
  let t0 = now () in
  let ops = List.map (run_one ~pool) circuits in
  let untraced = now () -. t0 in
  let total = acc () in
  let checks =
    List.map2
      (fun c op ->
        let wall, outcome, a = staged_circuit ~pool c in
        merge_into total a;
        bump total "flow.sweep_traced_s" wall;
        bump total
          (Printf.sprintf "circuit.%s.s" c.spec.Corpus.profile.Profiles.name)
          op.seconds;
        self_check c ?reference:op.outcome outcome && not (failed op))
      circuits ops
  in
  Par.shutdown pool;
  let traced = get total "flow.sweep_traced_s" in
  let n = List.length circuits in
  List.iter
    (fun k -> Hashtbl.replace total k (get total k /. float_of_int n))
    [ "quality.power_saving_pct"; "quality.area_penalty_pct" ];
  bump total "flow.unattributed_s" (traced -. get total "stages_s");
  bump total "trace.overhead_pct" ((traced -. untraced) /. untraced *. 100.);
  let n_failed = List.length (List.filter not checks) in
  print_result ~correct:(n_failed = 0) ~attempted:n ~failed:n_failed (per_layer total)

(* One-off per-layer breakdown of arbitrary full-manifest circuits: the
   staged traced pipeline only, checked against the baselines. Prints one
   JSON line per circuit as soon as it is done, with every span's self
   time. *)
let breakdown ~jobs names =
  let pool = Par.create ~jobs in
  List.iter
    (fun name ->
      let spec = spec_of ~manifest:"full" name in
      let baseline =
        match Corpus.read_baseline ~dir:baseline_dir name with
        | Some b -> b
        | None -> failwith ("no committed baseline for " ^ name)
      in
      let wall, outcome, a = staged_circuit ~pool { spec; baseline } in
      let ok = self_check { spec; baseline } outcome in
      derive a;
      print_endline
        (J.encode
           (J.Obj
              (("circuit", J.Str name)
              :: ("jobs", J.Num (float_of_int jobs))
              :: ("matches_baseline", J.Bool ok)
              :: ("wall_s", J.Num wall)
              :: ("unattributed_s", J.Num (wall -. get a "stages_s"))
              :: ("ladder", J.Str outcome.Corpus.ladder)
              :: ("peak_rss_mb", J.Num (peak_rss_mb ()))
              :: List.map
                   (fun (k, v) -> (k, J.Num v))
                   (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) a []))))))
    names;
  Par.shutdown pool
