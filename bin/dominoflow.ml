(* dominoflow — command-line front end for the low-power domino synthesis
   flow (Patra & Narayanan, DAC'99 reproduction).

     dominoflow run --profile apex7 [--timed]
     dominoflow run --file design.dln --input-prob 0.5
     dominoflow estimate --file design.dln --phases "+-+"
     dominoflow workload --emit frg1 --format dln > frg1.dln
     dominoflow table1 / table2 *)

open Cmdliner
module Flow = Dpa_core.Flow
module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase
module Engine = Dpa_power.Engine
module Par = Dpa_util.Par
module Dpa_error = Dpa_util.Dpa_error

(* Recognized failures — parse errors, missing files, blown budgets with
   fallback disabled, internal invariant violations — become one clean
   line on stderr and a documented sysexits-style code (65 data, 66 io,
   69 unsupported, 70 internal, 75 budget), never a raw backtrace. Every
   command runs under [guard] (see [command] below). *)
let die e =
  prerr_endline ("dominoflow: " ^ Dpa_error.to_string e);
  exit (Dpa_error.exit_code e)

let guard f =
  try f () with
  | e -> ( match Dpa_error.of_exn e with Some err -> die err | None -> raise e)

(* one shared loader (Dpa_logic.Io) for every path-taking entry point:
   exception-safe reads, one place for the .blif/.dln dispatch *)
let read_file = Dpa_logic.Io.read_file

(* ---- value parsers ---- *)

(* [conv] narrowed to the values [ok] accepts: an out-of-range flag is a
   usage error (exit 124) before any work starts, on every command that
   takes it. Probabilities and budgets get the ranges the wire protocol
   enforces. *)
let restrict conv ~ok ~expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = restrict Arg.int ~ok:(fun n -> n >= 1) ~expected:"a positive integer"

let non_negative = restrict Arg.int ~ok:(fun n -> n >= 0) ~expected:"a non-negative integer"

let positive_seconds = restrict Arg.float ~ok:(fun s -> s > 0.0) ~expected:"a positive number"

(* NaN fails both comparisons *)
let probability =
  restrict Arg.float ~ok:(fun p -> p >= 0.0 && p <= 1.0) ~expected:"a probability in [0,1]"

let fallback_conv =
  Arg.conv
    ( (fun s ->
        match Engine.fallback_of_string s with
        | Some f -> Ok f
        | None -> Error (`Msg (Printf.sprintf "invalid fallback %S (none|reorder|sim)" s))),
      fun fmt f -> Format.pp_print_string fmt (Engine.fallback_to_string f) )

(* ---- the circuit: --file or --profile ---- *)

let file_arg =
  let doc = "Netlist file; .blif is parsed as BLIF, anything else as the .dln text format." in
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)

let source_arg =
  let profile_arg =
    let doc =
      "Named benchmark profile (industry1-3, apex7, frg1, x1, x3, or any corpus \
       profile; `dominoflow workload` lists them all)."
    in
    Arg.(value & opt (some string) None & info [ "profile"; "p" ] ~docv:"NAME" ~doc)
  in
  Term.product file_arg profile_arg

let netlist_of_source (file, profile) =
  match file, profile with
  | Some path, None -> Ok (Dpa_logic.Io.load_file path)
  | None, Some name -> (
    match Dpa_workload.Profiles.find name with
    | Some p when Dpa_workload.Profiles.is_sequential p ->
      Error
        (Printf.sprintf
           "profile %S is sequential; use `dominoflow corpus` or `dominoflow workload --emit`"
           name)
    | Some p -> Ok (Dpa_workload.Profiles.build_comb p)
    | None ->
      Error
        (Printf.sprintf "unknown profile %S (available: %s)" name
           (String.concat ", " Dpa_workload.Profiles.names)))
  | Some _, Some _ -> Error "--file and --profile are mutually exclusive"
  | None, None -> Error "one of --file or --profile is required"

let pair_limit_of ~profile =
  match profile with
  | Some name -> (
    match Dpa_workload.Profiles.find name with
    | Some p -> p.Dpa_workload.Profiles.pair_limit
    | None -> None)
  | None -> None

(* ---- common options ---- *)

let input_prob_arg =
  let doc = "Uniform signal probability of the primary inputs." in
  Arg.(value & opt probability 0.5 & info [ "input-prob" ] ~docv:"P" ~doc)

let phases_arg =
  let doc = "Explicit phase string, e.g. \"+-+\" (default all positive)." in
  Arg.(value & opt (some string) None & info [ "phases" ] ~docv:"PHASES" ~doc)

let timed_arg =
  let doc = "Run the Table 2 flow: derive a clock constraint and resize." in
  Arg.(value & flag & info [ "timed" ] ~doc)

let seed_arg =
  let doc = "Seed for randomized search strategies." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

(* the optimized netlist's phase assignment: all positive, or the
   --phases string *)
let assignment_of ~net = function
  | None -> Ok (Phase.all_positive (Netlist.num_outputs net))
  | Some s -> Phase.of_string ~num_outputs:(Netlist.num_outputs net) s

(* ---- resource budget options ---- *)

let max_bdd_nodes_arg =
  let doc =
    "Cap the BDD manager at $(docv) nodes; estimation degrades per the \
     --fallback policy instead of exhausting memory."
  in
  Arg.(value & opt (some positive) None & info [ "max-bdd-nodes" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Wall-clock deadline in seconds for each power estimate." in
  Arg.(value & opt (some positive_seconds) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

(* The budget of run/estimate/validate; submit and batch take it without
   --reorder-passes, because the wire protocol does not carry passes and
   the server estimates under the engine default. Neither a cap nor a
   deadline means no budget. *)
let budget_arg ~passes =
  let fallback_arg =
    let doc =
      "What to do when a budget runs out: $(b,none) fails with exit code 75, \
       $(b,reorder) frees the BDD nodes no later node needs and retries the failed \
       cones under the same variable order, $(b,sim) (default) additionally falls \
       back to Monte-Carlo simulation."
    in
    Arg.(value & opt fallback_conv Engine.Simulate & info [ "fallback" ] ~docv:"POLICY" ~doc)
  in
  let reorder_passes_arg =
    let doc =
      "$(b,0) turns the retry rung off, so exhausted cones fall straight through \
       to the $(b,--fallback) policy; any positive value turns it on."
    in
    Arg.(
      value
      & opt non_negative Engine.default_budget.Engine.reorder_passes
      & info [ "reorder-passes" ] ~docv:"N" ~doc)
  in
  let budget max_bdd_nodes deadline_s fallback reorder_passes =
    match max_bdd_nodes, deadline_s with
    | None, None -> None
    | _ ->
      Some
        { Engine.default_budget with
          Engine.max_bdd_nodes;
          deadline_s;
          fallback;
          reorder_passes }
  in
  Term.(
    const budget $ max_bdd_nodes_arg $ deadline_arg $ fallback_arg
    $ if passes then reorder_passes_arg
      else const Engine.default_budget.Engine.reorder_passes)

(* ---- the command wrapper: error guard, trace/metrics output, pool ---- *)

let trace_arg =
  let doc =
    "Record a structured trace of the run and write it to $(docv) in Chrome \
     trace format (load it in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the metrics registry (counters, gauges and per-span latency \
     histograms) to $(docv) as JSON after the command finishes."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Runs [f] with tracing/profiling switched on as requested and writes the
   output files after it — also when [f] fails, so a recognized failure
   still leaves a (partial) trace for diagnosis. The command's own error
   wins: a failed write is reported only when the command succeeded. *)
let with_obs (trace, metrics) f =
  if trace <> None then Dpa_obs.Trace.start ();
  if metrics <> None then Dpa_obs.Profile.enable ();
  let save () =
    Option.iter Dpa_obs.Trace.save trace;
    Option.iter Dpa_obs.Metrics.save_json metrics
  in
  let save_after_failure () = try save () with Sys_error _ | Fun.Finally_raised _ -> () in
  match f () with
  | `Ok () ->
    save ();
    `Ok ()
  | failed ->
    save_after_failure ();
    failed
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    save_after_failure ();
    Printexc.raise_with_backtrace e bt

(* Every subcommand is built here, so every one runs under [guard]; unless
   [~obs:false] it also takes --trace and --metrics. [body] evaluates to
   the command's action. *)
let command ?(obs = true) name ~doc body =
  let obs_arg = if obs then Term.product trace_arg metrics_arg else Term.const (None, None) in
  let run obs f = guard (fun () -> with_obs obs f) in
  Cmd.v (Cmd.info name ~doc) Term.(ret (const run $ obs_arg $ body))

(* The pool width is a performance hint, never a semantic knob, so an
   out-of-range request is clamped to what Par.create accepts rather than
   rejected. *)
let clamp_jobs j = max 1 (min 126 j)

(* [pooled body] adds --jobs and runs [body]'s action on one pool per
   invocation, created before the work and shut down after. *)
let pooled body =
  let jobs_arg =
    let doc =
      "Domains used for intra-request parallelism: a budgeted estimate, \
       including each candidate a budgeted phase search prices, fans its cone \
       shards out across $(docv) domains, and a budgeted exhaustive search \
       prices its candidates across them. Results are bit-identical at any \
       value (including 1). Default: the machine's recommended domain count."
    in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let run jobs f () =
    Par.with_pool ~jobs:(clamp_jobs (Option.value jobs ~default:(Par.default_jobs ()))) f
  in
  Term.(const run $ jobs_arg $ body)

(* ---- run ---- *)

let run_cmd =
  let sequential_arg =
    let doc =
      "Treat the design as sequential: parse .latch statements (BLIF files only), cut the \
       MFVS, propagate flip-flop probabilities and compare flows on the combinational core."
    in
    Arg.(value & flag & info [ "sequential" ] ~doc)
  in
  let two_level_arg =
    let doc = "Collapse narrow output cones to irredundant two-level form (ISOP) first." in
    Arg.(value & flag & info [ "two-level" ] ~doc)
  in
  let action (file, profile) input_prob timed seed sequential two_level budget pool =
    let config =
      { Flow.default_config with
        Flow.input_prob;
        seed;
        pair_limit = pair_limit_of ~profile;
        timing = (if timed then Some Flow.default_timing else None);
        budget;
        par = Some pool }
    in
    if sequential then begin
      match file with
      | Some path when Filename.check_suffix path ".blif" -> (
        match Dpa_logic.Blif.sequential_of_string (read_file path) with
        | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
        | Ok parsed ->
          let sn = Dpa_seq.Seq_netlist.of_blif parsed in
          let r = Dpa_core.Seq_flow.compare_ma_mp ~config sn in
          Printf.printf
            "sequential design: %d flip-flops, MFVS cut {%s}, %d symmetry group(s)\n"
            (Dpa_seq.Seq_netlist.n_ffs sn)
            (String.concat "," (List.map string_of_int r.Dpa_core.Seq_flow.fvs))
            r.Dpa_core.Seq_flow.supervertices;
          Array.iteri
            (fun k p -> Printf.printf "  ff%d steady P(Q) = %.3f\n" k p)
            r.Dpa_core.Seq_flow.ff_probs;
          print_newline ();
          print_string
            (Dpa_core.Report.table ~title:"MA vs MP (combinational core):"
               [ ("", r.Dpa_core.Seq_flow.comb) ]);
          `Ok ())
      | Some _ -> `Error (false, "--sequential requires a .blif file")
      | None -> `Error (false, "--sequential requires --file")
    end
    else
      match netlist_of_source (file, profile) with
      | Error msg -> `Error (false, msg)
      | Ok net ->
        let net =
          if two_level then begin
            let flat, stats =
              Dpa_synth.Resynth.two_level (Dpa_synth.Opt.optimize net)
            in
            Printf.printf "two-level resynthesis: %d/%d cones collapsed (%d cubes)\n"
              stats.Dpa_synth.Resynth.collapsed_outputs
              (stats.Dpa_synth.Resynth.collapsed_outputs
              + stats.Dpa_synth.Resynth.kept_outputs)
              stats.Dpa_synth.Resynth.cubes;
            flat
          end
          else net
        in
        let r = Flow.compare_ma_mp ~config net in
        print_string (Dpa_core.Report.table ~title:"MA vs MP:" [ ("", r) ]);
        print_newline ();
        print_endline (Dpa_core.Report.summary r);
        `Ok ()
  in
  let doc = "Compare minimum-area and minimum-power phase assignment on a circuit." in
  command "run" ~doc
    (pooled
       Term.(
         const action $ source_arg $ input_prob_arg $ timed_arg $ seed_arg $ sequential_arg
         $ two_level_arg $ budget_arg ~passes:true))

(* ---- estimate / validate ---- *)

(* Both commands price one phase assignment the same way — load, optimize,
   realize, map, [Engine.estimate] — and open with the same header; [k]
   prints the rest from the input probabilities, the mapped block and the
   estimate. *)
let price ~pool ~source ~input_prob ~phases ~budget k =
  match netlist_of_source source with
  | Error msg -> `Error (false, msg)
  | Ok raw -> (
    let net = Dpa_synth.Opt.optimize raw in
    match assignment_of ~net phases with
    | Error msg -> `Error (false, msg)
    | Ok assignment ->
      let input_probs = Array.make (Netlist.num_inputs net) input_prob in
      let mapped = Dpa_domino.Mapped.map (Dpa_synth.Inverterless.realize net assignment) in
      let est = Engine.estimate ~par:pool ?budget ~input_probs mapped in
      Printf.printf "phases %s: %d cells\n" (Phase.to_string assignment)
        (Dpa_domino.Mapped.size mapped);
      if not (Engine.all_exact est.Engine.degradation) then
        Printf.printf "  estimate degraded: %s\n"
          (Engine.degradation_to_string est.Engine.degradation);
      k ~input_probs mapped est.Engine.report;
      `Ok ())

let estimate_cmd =
  let cycles_arg =
    let doc = "Also simulate this many cycles and report measured power." in
    Arg.(value & opt (some positive) None & info [ "simulate" ] ~docv:"CYCLES" ~doc)
  in
  let action source input_prob phases cycles budget pool =
    price ~pool ~source ~input_prob ~phases ~budget @@ fun ~input_probs mapped r ->
    Printf.printf "  domino block power   %10.4f\n" r.Dpa_power.Estimate.domino_power;
    Printf.printf "  input inverters      %10.4f\n" r.Dpa_power.Estimate.input_inverter_power;
    Printf.printf "  output inverters     %10.4f\n" r.Dpa_power.Estimate.output_inverter_power;
    Printf.printf "  total                %10.4f\n" r.Dpa_power.Estimate.total;
    print_endline "  by cell type:";
    List.iter
      (fun (cname, count, power) -> Printf.printf "    %-10s x%-4d %10.4f\n" cname count power)
      (Dpa_power.Estimate.by_cell_type
         ~input_toggle:(fun pos -> Dpa_power.Model.static_switching input_probs.(pos))
         mapped ~node_probs:r.Dpa_power.Estimate.node_probs);
    match cycles with
    | Some c ->
      let rng = Dpa_util.Rng.create 1 in
      let m =
        Dpa_power.Estimate.of_activity mapped
          (Dpa_sim.Simulator.measure ~cycles:c rng ~input_probs mapped)
      in
      Printf.printf "  simulated (%d cycles) %9.4f\n" c m.Dpa_power.Estimate.total
    | None -> ()
  in
  let doc = "Estimate (and optionally simulate) domino power for a phase assignment." in
  command "estimate" ~doc
    (pooled
       Term.(
         const action $ source_arg $ input_prob_arg $ phases_arg $ cycles_arg
         $ budget_arg ~passes:true))

(* Cross-check the analytic engine estimate against a Monte-Carlo
   measurement of the same mapped block. The simulated number is the
   ground truth the whole estimation stack approximates, so this is the
   end-to-end validation path for the engine. *)
let validate_cmd =
  let cycles_arg =
    let doc =
      "Monte-Carlo cycles for the simulated measurement (default: the shared \
       simulator default, 10000)."
    in
    Arg.(
      value
      & opt positive Dpa_sim.Compiled.default_cycles
      & info [ "cycles" ] ~docv:"N" ~doc)
  in
  let action source input_prob phases cycles seed budget pool =
    price ~pool ~source ~input_prob ~phases ~budget @@ fun ~input_probs mapped r ->
    let estimated = r.Dpa_power.Estimate.total in
    let rng = Dpa_util.Rng.create seed in
    let measured =
      Dpa_power.Estimate.of_activity mapped
        (Dpa_sim.Simulator.measure ~cycles rng ~input_probs mapped)
    in
    let simulated = measured.Dpa_power.Estimate.total in
    let rel =
      if Float.abs estimated > 1e-12 then
        100.0 *. Float.abs (simulated -. estimated) /. estimated
      else 0.0
    in
    Printf.printf "  estimated total      %10.4f\n" estimated;
    Printf.printf "  simulated total      %10.4f   (%d cycles, seed %d)\n" simulated
      cycles seed;
    Printf.printf "  relative gap         %9.2f%%\n" rel
  in
  let doc =
    "Validate the analytic power estimate against a Monte-Carlo simulation of the \
     mapped block (deterministic seed)."
  in
  command "validate" ~doc
    (pooled
       Term.(
         const action $ source_arg $ input_prob_arg $ phases_arg $ cycles_arg $ seed_arg
         $ budget_arg ~passes:true))

(* ---- info ---- *)

let info_cmd =
  let action source () =
    match netlist_of_source source with
    | Error msg -> `Error (false, msg)
    | Ok net ->
      print_string (Dpa_logic.Netstats.to_string (Dpa_logic.Netstats.compute net));
      let opt = Dpa_synth.Opt.optimize net in
      Printf.printf "after technology-independent optimization: %d gates\n"
        (Netlist.gate_count opt);
      let probs = Array.make (Netlist.num_inputs opt) 0.5 in
      Printf.printf "domino/static power ratio at p=0.5 (min-area phases): %.2fx\n"
        (Dpa_power.Static_model.domino_to_static_ratio ~input_probs:probs opt);
      `Ok ()
  in
  let doc = "Print structural statistics and the domino/static power ratio." in
  command "info" ~doc Term.(const action $ source_arg)

(* ---- equiv ---- *)

let equiv_cmd =
  let action file_a file_b () =
    let a = Dpa_logic.Io.load_file file_a and b = Dpa_logic.Io.load_file file_b in
    match Dpa_bdd.Equiv.check a b with
    | Dpa_bdd.Equiv.Equivalent ->
      print_endline "EQUIVALENT";
      `Ok ()
    | Dpa_bdd.Equiv.Interface_mismatch msg ->
      Printf.printf "INTERFACE MISMATCH: %s\n" msg;
      exit 2
    | Dpa_bdd.Equiv.Differ { output; witness } ->
      let po_name =
        match Array.to_list (Dpa_logic.Netlist.outputs a) with
        | outs when output < List.length outs -> fst (List.nth outs output)
        | _ -> string_of_int output
      in
      Printf.printf "DIFFER at output %s; witness inputs:\n" po_name;
      Array.iteri
        (fun pos id ->
          let name =
            Option.value ~default:(Printf.sprintf "pi%d" pos)
              (Dpa_logic.Netlist.node_name a id)
          in
          Printf.printf "  %s = %d\n" name (Bool.to_int witness.(pos)))
        (Dpa_logic.Netlist.inputs a);
      exit 1
  in
  let file_a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A") in
  let file_b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B") in
  let doc = "Check two netlists for combinational equivalence (BDD-based)." in
  command ~obs:false "equiv" ~doc Term.(const action $ file_a $ file_b)

(* ---- mfvs ---- *)

let mfvs_cmd =
  let action file () =
    if not (Filename.check_suffix file ".blif") then
      `Error (false, "mfvs requires a sequential .blif file")
    else
      match Dpa_logic.Blif.sequential_of_string (read_file file) with
      | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
      | Ok parsed ->
        let sn = Dpa_seq.Seq_netlist.of_blif parsed in
        let g = Dpa_seq.Sgraph.of_seq_netlist sn in
        let n = Dpa_seq.Seq_netlist.n_ffs sn in
        Printf.printf "s-graph: %d flip-flops\n" n;
        List.iter
          (fun v ->
            Printf.printf "  ff%d -> {%s}\n" v
              (String.concat "," (List.map string_of_int (Dpa_seq.Sgraph.succ g v))))
          (Dpa_seq.Sgraph.alive_vertices g);
        let heuristic = Dpa_seq.Mfvs.solve g in
        Printf.printf "enhanced MFVS: {%s} (%d supervertices, %d greedy picks)\n"
          (String.concat "," (List.map string_of_int heuristic.Dpa_seq.Mfvs.fvs))
          (List.length heuristic.Dpa_seq.Mfvs.supervertices)
          heuristic.Dpa_seq.Mfvs.greedy_picks;
        (match Dpa_seq.Exact_mfvs.solve ~node_limit:100_000 g with
        | Some exact ->
          Printf.printf "exact optimum: {%s} (weight %d, %d branch nodes)\n"
            (String.concat "," (List.map string_of_int exact.Dpa_seq.Exact_mfvs.fvs))
            exact.Dpa_seq.Exact_mfvs.weight exact.Dpa_seq.Exact_mfvs.nodes_explored
        | None -> print_endline "exact optimum: search budget exceeded");
        let part = Dpa_seq.Partition.probabilities ~input_probs:(Array.make (Dpa_seq.Seq_netlist.n_real_inputs sn) 0.5) sn in
        Array.iteri
          (fun k p ->
            Printf.printf "  ff%d steady P(Q) = %.4f%s\n" k p
              (if List.mem k part.Dpa_seq.Partition.fvs then "   (cut, assumed)" else ""))
          part.Dpa_seq.Partition.ff_probs;
        `Ok ()
  in
  let file_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.blif") in
  let doc = "Analyze a sequential design: s-graph, enhanced and exact MFVS, probabilities." in
  command "mfvs" ~doc Term.(const action $ file_pos)

(* ---- serve / submit / batch (the resident service) ---- *)

module Server = Dpa_service.Server
module Client = Dpa_service.Client
module Protocol = Dpa_service.Protocol

let socket_doc = "Unix-domain socket path of the phase-assignment server."

let socket_req_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:socket_doc)

let socket_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket"; "s" ]
        ~docv:"PATH"
        ~doc:(socket_doc ^ " Omitted: a private server is started in-process for the call."))

let workers_arg =
  let doc = "Worker domains executing requests in parallel." in
  Arg.(
    value
    & opt positive (max 1 (min 4 (Domain.recommended_domain_count () - 1)))
    & info [ "workers"; "j" ] ~docv:"N" ~doc)

(* Fault-injection plumbing shared by serve and chaos. *)
let fault_arg =
  let doc =
    "Arm fault injection: $(docv) is \"point:rate[:param],...\" over slow_cone, \
     worker_panic, torn_frame, drop_conn, write_stall."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault-decision stream (with --fault; default 0)." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N" ~doc)

let arm_faults ~fault ~fault_seed =
  match fault with
  | None -> Ok ()
  | Some spec -> (
    match Dpa_util.Fault.parse_config spec with
    | Ok cfg ->
      Dpa_util.Fault.configure ~seed:fault_seed cfg;
      Ok ()
    | Error msg -> Error ("--fault: " ^ msg))

let max_request_bytes_arg =
  let doc =
    "Largest admissible request frame in bytes; larger frames are answered with \
     a structured error before parsing."
  in
  Arg.(
    value
    & opt positive Server.default_max_request_bytes
    & info [ "max-request-bytes" ] ~docv:"BYTES" ~doc)

let serve_cmd =
  let queue_arg =
    let doc =
      "Bound of the job queue; once full, further requests are shed with a \
       structured $(b,overloaded) response carrying a retry_after_ms hint \
       instead of buffering without limit."
    in
    Arg.(
      value
      & opt positive Server.default_queue_capacity
      & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let serve_jobs_arg =
    let doc =
      "Intra-request domains per worker: each worker owns a private pool, so at \
       most workers × $(docv) domains are ever busy. Default: the machine's \
       cores spread evenly across the workers."
    in
    Arg.(value & opt (some positive) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let cache_mb_arg =
    let doc =
      "Byte bound of the shared result cache in MiB (successful estimate, \
       optimize and compare responses keyed by canonical structure); 0 \
       disables caching."
    in
    Arg.(
      value & opt non_negative Server.default_cache_mb & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let cache_entries_arg =
    let doc = "Entry bound of the result cache." in
    Arg.(
      value
      & opt positive Server.default_cache_entries
      & info [ "cache-entries" ] ~docv:"N" ~doc)
  in
  let cache_snapshot_arg =
    let doc =
      "Persist the result cache to $(docv): loaded at startup (a corrupt or \
       version-skewed file is ignored with a warning) and rewritten atomically \
       on graceful drain, so a restarted server answers warm."
    in
    Arg.(value & opt (some string) None & info [ "cache-snapshot" ] ~docv:"PATH" ~doc)
  in
  let action socket workers jobs queue_capacity max_request_bytes cache_mb cache_entries
      cache_snapshot fault fault_seed () =
    match arm_faults ~fault ~fault_seed with
    | Error msg -> `Error (false, msg)
    | Ok () ->
      let jobs = clamp_jobs (Option.value jobs ~default:(Par.default_jobs () / workers)) in
      (* a signal drains like a shutdown request instead of killing
         in-flight work; the exit code records which signal it was *)
      let caught_signal = ref None in
      Server.run
        ~on_ready:(fun h ->
          let drain_on signum =
            Sys.set_signal signum
              (Sys.Signal_handle
                 (fun _ ->
                   caught_signal := Some signum;
                   Server.stop h))
          in
          drain_on Sys.sigint;
          drain_on Sys.sigterm;
          Printf.printf "dominoflow: serving on %s (workers=%d, jobs=%d, queue=%d)\n%!"
            socket workers jobs queue_capacity)
        {
          Server.socket_path = socket;
          workers;
          jobs;
          queue_capacity;
          max_request_bytes;
          cache_mb;
          cache_entries;
          cache_snapshot;
        };
      print_endline "dominoflow: server drained, bye";
      (match !caught_signal with
      | Some s when s = Sys.sigterm -> exit (128 + 15)
      | Some s when s = Sys.sigint -> exit (128 + 2)
      | Some _ | None -> ());
      `Ok ()
  in
  let doc =
    "Run the resident phase-assignment server: newline-delimited JSON requests \
     (ping, info, estimate, optimize, compare, stats, shutdown) over a Unix \
     socket, executed by a pool of worker domains under a watchdog. SIGINT and \
     SIGTERM drain gracefully (exit 130 / 143)."
  in
  command "serve" ~doc
    Term.(
      const action $ socket_req_arg $ workers_arg $ serve_jobs_arg $ queue_arg
      $ max_request_bytes_arg $ cache_mb_arg $ cache_entries_arg $ cache_snapshot_arg
      $ fault_arg $ fault_seed_arg)

(* Request construction shared by submit and batch: one CLI-side source
   of truth for turning flags into protocol envelopes. *)
let build_request ~id ~cmd ~file ~inline ~input_prob ~phases ~seed ~budget ~cache =
  let source path =
    if inline then
      Protocol.Inline
        {
          text = read_file path;
          format = (if Filename.check_suffix path ".blif" then `Blif else `Dln);
        }
    else Protocol.File path
  in
  let need_file k =
    match file with
    | Some path -> Ok (source path)
    | None -> Error (Printf.sprintf "cmd %s requires --file" k)
  in
  let budget_opts =
    Option.map
      (fun b ->
        {
          Protocol.max_bdd_nodes = b.Engine.max_bdd_nodes;
          deadline_s = b.Engine.deadline_s;
          fallback = b.Engine.fallback;
        })
      budget
  in
  let req =
    match cmd with
    | "ping" -> Ok Protocol.Ping
    | "stats" -> Ok Protocol.Stats
    | "shutdown" -> Ok Protocol.Shutdown
    | "info" -> Result.map (fun s -> Protocol.Info { source = s }) (need_file "info")
    | "estimate" ->
      Result.map
        (fun s ->
          Protocol.Estimate { source = s; input_prob; phases; budget = budget_opts })
        (need_file "estimate")
    | "optimize" ->
      Result.map
        (fun s -> Protocol.Optimize { source = s; input_prob; seed; budget = budget_opts })
        (need_file "optimize")
    | "compare" ->
      Result.map
        (fun s -> Protocol.Compare { source = s; input_prob; seed; budget = budget_opts })
        (need_file "compare")
    | other ->
      Error
        (Printf.sprintf
           "unknown cmd %S (ping|info|estimate|optimize|compare|stats|shutdown)" other)
  in
  Result.map (fun request -> { Protocol.id; request; cache }) req

let cache_arg =
  let doc =
    "Result-cache control: $(b,use) (default) answers from the server's cache \
     on a hit, $(b,bypass) forces the cold execution path (never probes, never \
     populates — responses are byte-identical either way)."
  in
  Arg.(
    value
    & opt (enum [ ("use", `Use); ("bypass", `Bypass) ]) `Use
    & info [ "cache" ] ~docv:"MODE" ~doc)

let cmd_pos =
  let doc = "Request kind: ping, info, estimate, optimize, compare, stats or shutdown." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CMD" ~doc)

let inline_arg =
  let doc =
    "Ship the netlist text inside the request instead of sending the path \
     (useful when the server runs in another directory)."
  in
  Arg.(value & flag & info [ "inline" ] ~doc)

let submit_cmd =
  let id_arg =
    let doc = "Request id echoed in the response." in
    Arg.(value & opt int 0 & info [ "id" ] ~docv:"N" ~doc)
  in
  let action socket cmd id file inline input_prob phases seed budget cache () =
    match build_request ~id ~cmd ~file ~inline ~input_prob ~phases ~seed ~budget ~cache with
    | Error msg -> `Error (false, msg)
    | Ok envelope ->
      let client = Client.connect socket in
      let line =
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () -> Client.request client (Protocol.request_line envelope))
      in
      print_endline line;
      (match Protocol.parse_response line with
      | Ok { Protocol.ok = true; _ } -> `Ok ()
      | Ok { Protocol.ok = false; result; _ } ->
        let code =
          match Dpa_util.Jsonlite.member_opt "exit_code" result with
          | Some (Dpa_util.Jsonlite.Num f) -> int_of_float f
          | _ -> 70
        in
        exit code
      | Error msg -> die (Dpa_error.Internal ("unparseable response: " ^ msg)))
  in
  let doc = "Send one request to a running server and print the response line." in
  command ~obs:false "submit" ~doc
    Term.(
      const action $ socket_req_arg $ cmd_pos $ id_arg $ file_arg $ inline_arg
      $ input_prob_arg $ phases_arg $ seed_arg $ budget_arg ~passes:false $ cache_arg)

let batch_cmd =
  let jobs_arg =
    let doc =
      "Newline-delimited JSON request file ($(b,-) reads stdin); requests without \
       an id get their line number. Mutually exclusive with positional FILEs."
    in
    Arg.(value & opt (some string) None & info [ "jobs" ] ~docv:"FILE" ~doc)
  in
  let files_pos =
    let doc = "Netlist files; each becomes one request of kind --cmd." in
    Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let cmd_arg =
    let doc = "Request kind for positional FILEs (estimate, optimize, compare, info)." in
    Arg.(value & opt string "estimate" & info [ "cmd" ] ~docv:"CMD" ~doc)
  in
  let repeat_arg =
    let doc = "Send each request $(docv) times (throughput measurement)." in
    Arg.(value & opt positive 1 & info [ "repeat" ] ~docv:"K" ~doc)
  in
  let request_jobs_arg =
    let doc =
      "Intra-request domains per worker of the in-process server (ignored with \
       --socket; the resident server sets its own width via $(b,serve --jobs))."
    in
    Arg.(value & opt int 1 & info [ "request-jobs" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry attempts after the first for requests answered $(b,overloaded) or \
       orphaned by a dropped connection (capped exponential backoff with \
       jitter, honoring the server's retry_after_ms hint). Requires distinct \
       positive request ids (the default numbering provides them); 0 disables."
    in
    Arg.(value & opt non_negative 3 & info [ "retries" ] ~docv:"K" ~doc)
  in
  let action socket workers request_jobs retries jobs files cmd repeat inline input_prob
      phases seed budget cache () =
    let with_id i json =
      match Dpa_util.Jsonlite.member_opt "id" json with
      | Some _ -> json
      | None -> (
        match json with
        | Dpa_util.Jsonlite.Obj fields ->
          Dpa_util.Jsonlite.Obj (("id", Dpa_util.Jsonlite.Num (float_of_int i)) :: fields)
        | other -> other)
    in
    let requests =
      match jobs, files with
      | Some _, _ :: _ -> Error "--jobs and positional FILEs are mutually exclusive"
      | None, [] -> Error "nothing to do: pass --jobs FILE or netlist FILEs"
      | Some path, [] ->
        let text = if path = "-" then In_channel.input_all stdin else read_file path in
        let lines =
          String.split_on_char '\n' text
          |> List.filter (fun l -> String.trim l <> "")
        in
        let parse i line =
          match Dpa_util.Jsonlite.parse line with
          | json -> Ok (Dpa_util.Jsonlite.encode (with_id (i + 1) json))
          | exception Dpa_util.Jsonlite.Parse_error msg ->
            Error (Printf.sprintf "jobs line %d: %s" (i + 1) msg)
        in
        List.mapi parse lines
        |> List.fold_left
             (fun acc r ->
               match acc, r with
               | Error e, _ -> Error e
               | Ok _, Error e -> Error e
               | Ok xs, Ok x -> Ok (x :: xs))
             (Ok [])
        |> Result.map List.rev
      | None, files ->
        let rec expand i acc = function
          | [] -> Ok (List.rev acc)
          | path :: rest -> (
            match
              build_request ~id:i ~cmd ~file:(Some path) ~inline ~input_prob ~phases
                ~seed ~budget ~cache
            with
            | Error msg -> Error msg
            | Ok env -> expand (i + 1) (Protocol.request_line env :: acc) rest)
        in
        let repeated =
          List.concat_map (fun f -> List.init repeat (fun _ -> f)) files
        in
        (* ids start at 1: retry correlation needs distinct positive ids *)
        expand 1 [] repeated
    in
    match requests with
    | Error msg -> `Error (false, msg)
    | Ok [] -> `Ok ()
    | Ok lines ->
      let retry =
        if retries <= 0 then None
        else Some { Client.default_retry with Client.max_attempts = retries + 1; seed }
      in
      let run ~socket =
        let t0 = Unix.gettimeofday () in
        let responses = Client.run_batch ?retry ~socket lines in
        (responses, Unix.gettimeofday () -. t0)
      in
      let responses, dt =
        match socket with
        | Some s -> run ~socket:s
        | None ->
          Client.with_self_hosted ~workers ~jobs:(clamp_jobs request_jobs)
            (fun ~socket -> run ~socket)
      in
      (* responses arrive in completion order; print them in request
         order by correlating on the echoed id *)
      let order = Hashtbl.create 64 in
      List.iteri
        (fun pos line ->
          match Dpa_util.Jsonlite.(member_opt "id" (parse line)) with
          | Some (Dpa_util.Jsonlite.Num f) ->
            let id = int_of_float f in
            Hashtbl.replace order id
              (match Hashtbl.find_opt order id with
              | Some ps -> ps @ [ pos ]
              | None -> [ pos ])
          | _ -> ())
        lines;
      let n = List.length lines in
      let slots = Array.make n None in
      let spill = ref [] in
      List.iter
        (fun line ->
          let id =
            match Protocol.parse_response line with
            | Ok r -> Some r.Protocol.rid
            | Error _ -> None
          in
          let placed =
            match id with
            | None -> false
            | Some id -> (
              match Hashtbl.find_opt order id with
              | Some (pos :: rest) ->
                Hashtbl.replace order id rest;
                slots.(pos) <- Some line;
                true
              | Some [] | None -> false)
          in
          if not placed then spill := line :: !spill)
        responses;
      Array.iter (function Some line -> print_endline line | None -> ()) slots;
      List.iter print_endline (List.rev !spill);
      Printf.eprintf "batch: %d requests in %.3f s (%.1f req/s, workers=%s)\n" n dt
        (float_of_int n /. Float.max dt 1e-9)
        (match socket with Some _ -> "server" | None -> string_of_int workers);
      `Ok ()
  in
  let doc =
    "Stream many requests over one connection (pipelined), print the responses \
     in request order and report aggregate throughput. Without --socket, a \
     private in-process server with --workers domains handles the batch."
  in
  command ~obs:false "batch" ~doc
    Term.(
      const action $ socket_opt_arg $ workers_arg $ request_jobs_arg $ retries_arg $ jobs_arg
      $ files_pos $ cmd_arg $ repeat_arg $ inline_arg $ input_prob_arg $ phases_arg $ seed_arg
      $ budget_arg ~passes:false $ cache_arg)

let chaos_cmd =
  let requests_arg =
    let doc = "Requests in the soak batch." in
    Arg.(value & opt positive 120 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let garbage_arg =
    let doc = "Garbage probe lines (each must get a structured error back)." in
    Arg.(value & opt non_negative 9 & info [ "garbage" ] ~docv:"N" ~doc)
  in
  let deadline_every_arg =
    let doc = "Attach a tight 50ms deadline budget to every $(docv)th request (0 = never)." in
    Arg.(value & opt non_negative 5 & info [ "deadline-every" ] ~docv:"K" ~doc)
  in
  let chaos_queue_arg =
    let doc = "Job-queue bound (small on purpose, so overload shedding triggers)." in
    Arg.(value & opt positive 8 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let chaos_jobs_arg =
    let doc = "Intra-request domains per worker." in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Also write the report JSON to $(docv) (the CI metrics artifact)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let action workers jobs requests garbage deadline_every queue_capacity fault seed out () =
    let faults =
      match fault with
      | None -> Ok None
      | Some spec -> Result.map Option.some (Dpa_util.Fault.parse_config spec)
    in
    match faults with
    | Error msg -> `Error (false, "--fault: " ^ msg)
    | Ok faults ->
      let r =
        Dpa_service.Chaos.soak ~seed ~workers ~jobs:(clamp_jobs jobs) ~queue_capacity
          ~requests ~deadline_every ~garbage ?faults ()
      in
      let json = Dpa_util.Jsonlite.encode (Dpa_service.Chaos.report_json r) in
      print_endline json;
      (match out with
      | Some path ->
        Out_channel.with_open_text path (fun oc -> output_string oc (json ^ "\n"))
      | None -> ());
      if r.Dpa_service.Chaos.strength < r.Dpa_service.Chaos.workers then
        die
          (Dpa_error.Internal
             (Printf.sprintf "pool not at full strength after soak: %d/%d workers"
                r.Dpa_service.Chaos.strength r.Dpa_service.Chaos.workers))
      else `Ok ()
  in
  let doc =
    "Chaos soak: run a self-hosted server under injected faults (stalled cones, \
     worker panics, torn frames, dropped connections, stalled flushes) and \
     verify every request is answered exactly once, every garbage probe gets a \
     structured error, and the worker pool ends at full strength. Prints a JSON \
     report; exits non-zero when an invariant fails."
  in
  command "chaos" ~doc
    Term.(
      const action $ workers_arg $ chaos_jobs_arg $ requests_arg $ garbage_arg
      $ deadline_every_arg $ chaos_queue_arg $ fault_arg $ seed_arg $ out_arg)

(* ---- workload ---- *)

let workload_cmd =
  let module P = Dpa_workload.Profiles in
  let list_profiles () =
    Printf.printf "%-14s %-10s %8s %5s %5s %4s %6s %s\n" "NAME" "FAMILY" "~GATES"
      "PI" "PO" "FF" "PAIRS" "DESCRIPTION";
    List.iter
      (fun name ->
        match P.find name with
        | None -> ()
        | Some p ->
          let n_pi, n_po, n_ffs = P.interface p in
          Printf.printf "%-14s %-10s %8d %5d %5d %4d %6s %s\n" p.P.name
            (P.family_name p.P.family) p.P.scale n_pi n_po n_ffs
            (match p.P.pair_limit with Some n -> string_of_int n | None -> "all")
            p.P.description)
      P.names
  in
  let emit name format out =
    match P.find name with
    | None ->
      `Error
        ( false,
          Printf.sprintf "unknown profile %S (available: %s)" name
            (String.concat ", " P.names) )
    | Some p ->
      let text =
        match P.build p, format with
        | P.Comb net, `Blif -> Ok (Dpa_logic.Blif.to_string net)
        | P.Comb net, `Dln -> Ok (Dpa_logic.Io.to_string net)
        | P.Seq sn, `Blif ->
          Ok
            (Dpa_logic.Blif.sequential_to_string
               {
                 Dpa_logic.Blif.comb = Dpa_seq.Seq_netlist.comb sn;
                 n_real_inputs = Dpa_seq.Seq_netlist.n_real_inputs sn;
                 latches =
                   Array.map
                     (fun ff ->
                       {
                         Dpa_logic.Blif.data = ff.Dpa_seq.Seq_netlist.data;
                         init = ff.Dpa_seq.Seq_netlist.init;
                       })
                     (Dpa_seq.Seq_netlist.ffs sn);
               })
        | P.Seq _, `Dln ->
          Error
            (Printf.sprintf
               "profile %S is sequential; the .dln format is combinational-only \
                (use --format blif)"
               name)
      in
      (match text with
      | Error msg -> `Error (false, msg)
      | Ok text ->
        (match out with
        | None -> print_string text
        | Some path ->
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text));
        `Ok ())
  in
  let action emit_name format out () =
    match emit_name with
    | None ->
      list_profiles ();
      `Ok ()
    | Some name -> emit name format out
  in
  let emit_arg =
    let doc = "Emit profile $(docv) as a netlist instead of listing." in
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"NAME" ~doc)
  in
  let format_arg =
    let doc = "Emit format: $(b,blif) (default; the only one carrying latches) or $(b,dln)." in
    Arg.(
      value
      & opt (enum [ ("blif", `Blif); ("dln", `Dln) ]) `Blif
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let out_arg =
    let doc = "Write the emitted netlist to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "List workload profiles (tables + corpus) or emit one as BLIF/.dln for use \
     with validate/serve/submit."
  in
  command ~obs:false "workload" ~doc Term.(const action $ emit_arg $ format_arg $ out_arg)

(* ---- corpus ---- *)

let corpus_cmd =
  let module C = Dpa_workload.Corpus in
  (* override flags are Option-valued here (unlike the estimate/run budget
     flags) so "flag absent" leaves the per-spec manifest budget alone *)
  let fallback_opt_arg =
    let doc = "Override every spec's budget fallback policy (none|reorder|sim)." in
    Arg.(value & opt (some fallback_conv) None & info [ "fallback" ] ~docv:"POLICY" ~doc)
  in
  let manifest_arg =
    let doc = "Manifest to sweep: $(b,full) (default) or $(b,smoke) (CI-size)." in
    Arg.(value & opt string "full" & info [ "manifest" ] ~docv:"NAME" ~doc)
  in
  let only_arg =
    let doc = "Restrict the sweep to circuit $(docv) from the manifest." in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAME" ~doc)
  in
  let update_arg =
    let doc = "Rewrite the stored baselines from this run instead of diffing against them." in
    Arg.(value & flag & info [ "update-baselines" ] ~doc)
  in
  let baseline_dir_arg =
    let doc = "Directory of per-circuit baseline JSON files." in
    Arg.(value & opt string "data/baselines" & info [ "baseline-dir" ] ~docv:"DIR" ~doc)
  in
  let out_arg =
    let doc = "Write the per-circuit bench report to $(docv)." in
    Arg.(value & opt string "BENCH_corpus.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let perf_slack_arg =
    let doc =
      "Fail when a circuit's wall time exceeds $(docv)x its baseline; 0 \
       disables the perf check (quality checks are always exact)."
    in
    Arg.(value & opt float 10.0 & info [ "perf-slack" ] ~docv:"X" ~doc)
  in
  let action manifest only update baseline_dir out perf_slack max_bdd_nodes deadline
      fallback pool =
    match C.manifest_of_string manifest with
    | None ->
      prerr_endline (Printf.sprintf "unknown manifest %S (full|smoke)" manifest);
      exit 64
    | Some m ->
      let specs =
        match only with
        | None -> m.C.specs
        | Some name -> (
          match C.find_spec m name with
          | Some s -> [ s ]
          | None ->
            prerr_endline
              (Printf.sprintf "circuit %S is not in manifest %S (has: %s)" name m.C.name
                 (String.concat ", "
                    (List.map (fun s -> s.C.profile.Dpa_workload.Profiles.name) m.C.specs)));
            exit 64)
      in
      let problems = ref [] in
      let outcomes =
        List.map
          (fun spec ->
            let name = spec.C.profile.Dpa_workload.Profiles.name in
            let budget = C.merge_budget spec ~max_bdd_nodes ~deadline_s:deadline ~fallback in
            let o = C.run_spec ~par:pool ?budget spec in
            Printf.printf
              "%-14s %6d gates  MA %8.2f  MP %8.2f  (%+5.1f%% power, %+5.1f%% area)  \
               [%s] %.2fs\n\
               %!"
              o.C.name o.C.gates o.C.ma_power o.C.mp_power o.C.power_saving_pct
              o.C.area_penalty_pct o.C.ladder o.C.runtime_s;
            if update then C.write_baseline ~dir:baseline_dir o
            else begin
              match C.read_baseline ~dir:baseline_dir name with
              | None ->
                problems :=
                  (name, [ "no stored baseline (run corpus --update-baselines)" ])
                  :: !problems
              | Some expected -> (
                match C.diff ~perf_slack ~expected ~actual:o () with
                | [] -> ()
                | ds -> problems := (name, ds) :: !problems)
            end;
            o)
          specs
      in
      let oc = open_out out in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (C.bench_json ~manifest:m.C.name ~jobs:(Par.jobs pool) outcomes);
          output_char oc '\n');
      (match !problems with
      | [] ->
        if not update then
          Printf.printf "corpus: %d circuits clean against %s\n" (List.length outcomes)
            baseline_dir
      | ps ->
        List.iter
          (fun (name, ds) ->
            List.iter (fun d -> Printf.eprintf "REGRESSION %s: %s\n" name d) ds)
          (List.rev ps);
        Printf.eprintf "corpus: %d/%d circuits regressed\n" (List.length ps)
          (List.length outcomes);
        exit 65);
      `Ok ()
  in
  let doc =
    "Sweep a corpus manifest through the MA-vs-MP flows and diff every circuit \
     against its stored baseline (non-zero exit on regression)."
  in
  command "corpus" ~doc
    (pooled
       Term.(
         const action $ manifest_arg $ only_arg $ update_arg $ baseline_dir_arg $ out_arg
         $ perf_slack_arg $ max_bdd_nodes_arg $ deadline_arg $ fallback_opt_arg))

(* ---- tables ---- *)

let table_cmd name doc profiles timed =
  let csv_arg =
    let d = "Emit machine-readable CSV instead of the formatted table." in
    Arg.(value & flag & info [ "csv" ] ~doc:d)
  in
  let action csv pool =
    let rows =
      List.map
        (fun p ->
          let net = Dpa_workload.Profiles.build_comb p in
          let config =
            { Flow.default_config with
              Flow.pair_limit = p.Dpa_workload.Profiles.pair_limit;
              timing = (if timed then Some Flow.default_timing else None);
              par = Some pool }
          in
          (p.Dpa_workload.Profiles.description, Flow.compare_ma_mp ~config net))
        profiles
    in
    if csv then print_string (Dpa_core.Report.csv rows)
    else print_string (Dpa_core.Report.table ~title:(String.uppercase_ascii name ^ ":") rows);
    `Ok ()
  in
  command name ~doc (pooled Term.(const action $ csv_arg))

let table1_cmd =
  table_cmd "table1" "Reproduce Table 1 (untimed synthesis, input probability 0.5)."
    Dpa_workload.Profiles.table1 false

let table2_cmd =
  table_cmd "table2" "Reproduce Table 2 (timed synthesis with resizing)."
    Dpa_workload.Profiles.table2 true

(* ---- main ---- *)

let () =
  let doc = "automated phase assignment for low power domino circuits" in
  let info = Cmd.info "dominoflow" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ run_cmd; estimate_cmd; validate_cmd; info_cmd; equiv_cmd;
         mfvs_cmd; workload_cmd; corpus_cmd; table1_cmd; table2_cmd; serve_cmd;
         submit_cmd; batch_cmd; chaos_cmd ]))
