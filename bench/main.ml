(* Benchmark driver: regenerates every table and figure of the paper and
   runs Bechamel micro-benchmarks of the kernels behind each experiment.

   Usage:
     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig5            # one experiment
     dune exec bench/main.exe -- perf            # just the Bechamel suite
     dune exec bench/main.exe -- perf --json     # + write BENCH_bdd_kernel.json
     dune exec bench/main.exe -- --quick         # run each kernel once (CI smoke) *)

open Bechamel
module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase

(* ------------------------------------------------------------------ *)
(* Kernels: one closure per table/figure (scaled where the full          *)
(* experiment runs seconds), shared between the Bechamel suite and the   *)
(* --quick smoke mode.                                                   *)
(* ------------------------------------------------------------------ *)

let small_profile =
  { Dpa_workload.Generator.default with
    Dpa_workload.Generator.seed = 7;
    n_inputs = 24;
    n_outputs = 6;
    gates_per_output = 10;
    and_bias = 0.35;
    inverter_prob = 0.1;
    reuse_fraction = 0.4 }

let prepared_net = lazy (Dpa_synth.Opt.optimize (Dpa_workload.Generator.combinational small_profile))

let prepared_mapped =
  lazy
    (let net = Lazy.force prepared_net in
     Dpa_domino.Mapped.map
       (Dpa_synth.Inverterless.realize net (Phase.all_positive (Netlist.num_outputs net))))

let prepared_built =
  lazy
    (let net = Lazy.force prepared_net in
     Dpa_bdd.Build.of_netlist ~order:(Dpa_bdd.Ordering.reverse_topological net) net)

let prepared_seq =
  lazy
    (Dpa_workload.Generator.sequential
       { small_profile with Dpa_workload.Generator.seed = 21 } ~n_ffs:6)

let opaque x = ignore (Sys.opaque_identity x)

let run_greedy () =
  let net = Lazy.force prepared_net in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  let measure = Dpa_phase.Measure.create ~input_probs:probs net in
  let cost = Dpa_phase.Cost.make net in
  let base = Dpa_bdd.Build.probabilities ~input_probs:probs net in
  Dpa_phase.Greedy.run measure ~cost ~base_probs:base

let kernels =
  [ ("fig2.switching-model", fun () ->
      opaque (Dpa_power.Model.fig2_points ~steps:101 ()));
    ("fig3-4.inverterless-realize", fun () ->
      let net = Lazy.force prepared_net in
      opaque (Dpa_synth.Inverterless.realize net (Phase.all_positive (Netlist.num_outputs net))));
    ("fig5.power-estimate", fun () ->
      let mapped = Lazy.force prepared_mapped in
      opaque
        (Dpa_power.Estimate.of_mapped
           ~input_probs:(Array.make (Netlist.num_inputs (Lazy.force prepared_net)) 0.5)
           mapped));
    ("engine.budgeted-estimate", fun () ->
      (* the degradation ladder under a node budget tight enough to force
         per-cone fallback — prices the robustness path, not just the
         exact one *)
      let mapped = Lazy.force prepared_mapped in
      let budget = Dpa_power.Engine.bounded ~max_bdd_nodes:64 () in
      opaque
        (Dpa_power.Engine.estimate ~budget
           ~input_probs:(Array.make (Netlist.num_inputs (Lazy.force prepared_net)) 0.5)
           mapped));
    ("fig6.greedy-search", fun () -> opaque (run_greedy ()));
    ("fig7.partition-probabilities", fun () ->
      let sn =
        Dpa_workload.Generator.sequential
          { small_profile with Dpa_workload.Generator.seed = 11 } ~n_ffs:8
      in
      opaque (Dpa_seq.Partition.probabilities ~input_probs:(Array.make 24 0.5) sn));
    ("fig8-9.mfvs-solve", fun () ->
      let sn =
        Dpa_workload.Generator.sequential
          { small_profile with Dpa_workload.Generator.seed = 13 } ~n_ffs:12
      in
      opaque (Dpa_seq.Mfvs.solve (Dpa_seq.Sgraph.of_seq_netlist sn)));
    ("fig10.bdd-build-ordered", fun () ->
      let net = Lazy.force prepared_net in
      opaque (Dpa_bdd.Build.of_netlist ~order:(Dpa_bdd.Ordering.reverse_topological net) net));
    ("bdd.ite", fun () ->
      (* mk/ite/unique-table throughput: a fresh manager every call, so the
         tables are exercised cold (interning misses) and warm (hits). *)
      let m = Dpa_bdd.Robdd.create ~nvars:16 in
      let x l = Dpa_bdd.Robdd.var m l in
      let parity = ref (x 0) and majority = ref Dpa_bdd.Robdd.bdd_false in
      for l = 1 to 15 do
        parity := Dpa_bdd.Robdd.apply_xor m !parity (x l);
        majority := Dpa_bdd.Robdd.ite m (x l) !parity !majority
      done;
      opaque (Dpa_bdd.Robdd.ite m !majority !parity (Dpa_bdd.Robdd.neg m !parity)));
    ("bdd.probabilities", fun () ->
      (* memoized probability descent over the prepared circuit's BDDs *)
      let b = Lazy.force prepared_built in
      let probs = Array.make (Netlist.num_inputs (Lazy.force prepared_net)) 0.5 in
      opaque (Dpa_bdd.Build.probabilities_of_built ~input_probs:probs b));
    ("table1.ma-vs-mp-flow", fun () ->
      opaque (Dpa_core.Flow.compare_ma_mp (Dpa_workload.Generator.combinational small_profile)));
    ("table2.timed-flow", fun () ->
      let config =
        { Dpa_core.Flow.default_config with
          Dpa_core.Flow.timing = Some Dpa_core.Flow.default_timing }
      in
      opaque
        (Dpa_core.Flow.compare_ma_mp ~config
           (Dpa_workload.Generator.combinational small_profile)));
    ("seqtable.seq-flow", fun () ->
      opaque (Dpa_core.Seq_flow.compare_ma_mp (Lazy.force prepared_seq)));
    ("validate.sim-2k-cycles", fun () ->
      let mapped = Lazy.force prepared_mapped in
      let rng = Dpa_util.Rng.create 5 in
      opaque
        (Dpa_sim.Simulator.measure ~cycles:2000 rng
           ~input_probs:(Array.make (Netlist.num_inputs (Lazy.force prepared_net)) 0.5)
           mapped));
    ("equiv.bdd-check", fun () ->
      let net = Lazy.force prepared_net in
      opaque (Dpa_bdd.Equiv.check net (Dpa_synth.Opt.optimize net)));
    ("resynth.isop-two-level", fun () ->
      opaque (Dpa_synth.Resynth.two_level (Lazy.force prepared_net)));
    ("steady-state.markov", fun () ->
      let sn =
        Dpa_workload.Generator.sequential
          { Dpa_workload.Generator.default with
            Dpa_workload.Generator.seed = 4;
            n_inputs = 5;
            n_outputs = 2;
            gates_per_output = 5;
            support = 4 }
          ~n_ffs:4
      in
      opaque (Dpa_seq.Steady_state.analyze ~input_probs:(Array.make 5 0.5) sn));
    ("powermill-substitute.1k-cycles", fun () ->
      let mapped = Lazy.force prepared_mapped in
      let rng = Dpa_util.Rng.create 3 in
      opaque
        (Dpa_sim.Simulator.measure ~cycles:1000 rng
           ~input_probs:(Array.make (Netlist.num_inputs (Lazy.force prepared_net)) 0.5)
           mapped));
    ("timing.sta", fun () -> opaque (Dpa_timing.Sta.analyze (Lazy.force prepared_mapped)));
    ("corpus.midsize-roundtrip", fun () ->
      (* one mid-size corpus circuit through generation, well-formedness
         and the baseline wire format — the smoke path catches generator
         or baseline-format breakage before a full corpus sweep does *)
      let p =
        match Dpa_workload.Profiles.find "parity_mix" with
        | Some p -> p
        | None -> failwith "corpus profile parity_mix vanished"
      in
      let net = Dpa_workload.Profiles.build_comb p in
      (match Dpa_logic.Netlist.validate net with
      | Ok () -> ()
      | Error e -> failwith ("corpus generator: " ^ e));
      let o =
        { Dpa_workload.Corpus.name = p.Dpa_workload.Profiles.name;
          family = Dpa_workload.Profiles.family_name p.Dpa_workload.Profiles.family;
          digest = Dpa_logic.Struct_hash.digest net;
          gates = Dpa_logic.Netlist.gate_count net;
          n_pi = Dpa_logic.Netlist.num_inputs net;
          n_po = Dpa_logic.Netlist.num_outputs net;
          n_ffs = 0; fvs = 0; supervertices = 0;
          ma_size = 0; ma_power = 0.125; mp_size = 0; mp_power = 0.0625;
          mp_phases = 0; phase_flips = 0; duplicated_gates = 0;
          power_saving_pct = 50.0; area_penalty_pct = 0.1;
          ladder = "exact"; bdd_nodes = 0; runtime_s = 0.5 }
      in
      let rt =
        Dpa_workload.Corpus.outcome_of_json
          (Dpa_util.Jsonlite.parse
             (Dpa_util.Jsonlite.encode (Dpa_workload.Corpus.json_of_outcome o)))
      in
      if rt <> o then failwith "corpus baseline round-trip drifted";
      opaque rt) ]

(* ------------------------------------------------------------------ *)
(* JSON emission (hand rolled — no JSON library in the dependency set)  *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

(* Kernel counters of one incremental greedy search (the tentpole path),
   read back from the Dpa_obs metrics registry — the one source of truth
   for BDD counters. The registry is reset first so the numbers belong to
   exactly this run. *)
let greedy_registry_snapshot () =
  Dpa_obs.Metrics.reset ();
  let net = Lazy.force prepared_net in
  let probs = Array.make (Netlist.num_inputs net) 0.5 in
  let measure = Dpa_phase.Measure.create ~input_probs:probs net in
  let cost = Dpa_phase.Cost.make net in
  let base = Dpa_bdd.Build.probabilities ~input_probs:probs net in
  ignore (Dpa_phase.Greedy.run measure ~cost ~base_probs:base);
  Dpa_phase.Measure.publish_metrics measure;
  let c name = Dpa_obs.Metrics.counter_value (Dpa_obs.Metrics.counter name) in
  [ ("nodes", c "bdd.nodes_allocated");
    ("unique_probes", c "bdd.unique.probes");
    ("unique_hits", c "bdd.unique.hits");
    ("unique_resizes", c "bdd.unique.resizes");
    ("ite_probes", c "bdd.ite.probes");
    ("ite_hits", c "bdd.ite.hits");
    ("ite_resizes", c "bdd.ite.resizes") ]

let write_kernel_json ?(metrics = false) ~path results =
  let stats = greedy_registry_snapshot () in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"bench\": \"bdd_kernel\",\n  \"unit\": \"ns/op\",\n  \"results\": [\n";
  List.iteri
    (fun k (name, ns, rsq) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"r_square\": %s}%s\n"
           (json_escape name) (json_float ns)
           (match rsq with Some v -> json_float v | None -> "null")
           (if k = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"greedy_robdd_stats\": {";
  List.iteri
    (fun k (key, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s\"%s\": %d" (if k = 0 then "" else ", ") key v))
    stats;
  Buffer.add_string b "}";
  if metrics then begin
    (* the full registry of the greedy run, for dashboards that want more
       than the seven headline counters *)
    Buffer.add_string b ",\n  \"metrics\": ";
    let body = String.trim (Dpa_obs.Metrics.to_json ()) in
    Buffer.add_string b body
  end;
  Buffer.add_string b "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Service throughput                                                   *)
(* ------------------------------------------------------------------ *)

(* End-to-end throughput of the resident server: a pipelined batch of
   estimate requests over one real Unix-socket connection, repeated at
   several worker-pool sizes. The interesting number is the speedup of 4
   workers over 1 — the requests are CPU-bound (BDD build + probability
   descent per request), so the pool should scale until the socket pump
   or the queue becomes the bottleneck. Requests ship the netlist text
   inline so the measurement has no filesystem dependency. *)
let service_throughput ?(quick = false) ?(json = false) () =
  let requests_per_worker_count = if quick then 8 else 48 in
  let worker_counts = [ 1; 2; 4 ] in
  let inline_sources =
    (* heavier than [small_profile]: each estimate costs several
       milliseconds of BDD work, so the pool's scaling is measured
       against real per-request compute rather than socket overhead *)
    List.map
      (fun seed ->
        Dpa_logic.Io.to_string
          (Dpa_workload.Generator.combinational
             { small_profile with
               Dpa_workload.Generator.seed;
               n_inputs = 32;
               n_outputs = 10;
               gates_per_output = 22 }))
      [ 7; 11; 13 ]
  in
  let lines =
    List.init requests_per_worker_count (fun i ->
        let text = List.nth inline_sources (i mod List.length inline_sources) in
        Dpa_service.Protocol.request_line
          { Dpa_service.Protocol.id = i;
            request =
              Dpa_service.Protocol.Estimate
                { source = Dpa_service.Protocol.Inline { text; format = `Dln };
                  input_prob = 0.5;
                  phases = None;
                  budget = None };
            (* bypass: this bench measures worker-pool scaling on real
               BDD work; repeated sources would otherwise all hit the
               result cache and measure the socket pump instead *)
            cache = `Bypass })
  in
  Printf.printf "\n=== service throughput (%d pipelined estimate requests) ===\n\n"
    requests_per_worker_count;
  let measure workers =
    Dpa_service.Client.with_self_hosted ~workers (fun ~socket ->
        (* warm-up pass so domain spawn and first-connection costs are not
           billed to the measured batch *)
        ignore (Dpa_service.Client.run_batch ~socket [ List.hd lines ]);
        let t0 = Unix.gettimeofday () in
        let responses = Dpa_service.Client.run_batch ~socket lines in
        let dt = Unix.gettimeofday () -. t0 in
        let failed =
          List.filter
            (fun l ->
              match Dpa_service.Protocol.parse_response l with
              | Ok r -> not r.Dpa_service.Protocol.ok
              | Error _ -> true)
            responses
        in
        if failed <> [] then begin
          Printf.eprintf "service bench: %d request(s) failed, e.g. %s\n"
            (List.length failed) (List.hd failed);
          exit 1
        end;
        (workers, List.length responses, dt))
  in
  let rows = List.map measure worker_counts in
  let t =
    Dpa_util.Table.create
      ~columns:
        [ ("workers", Dpa_util.Table.Right);
          ("requests", Dpa_util.Table.Right);
          ("seconds", Dpa_util.Table.Right);
          ("req/s", Dpa_util.Table.Right) ]
  in
  let rate (_, n, dt) = float_of_int n /. Float.max dt 1e-9 in
  List.iter
    (fun ((workers, n, dt) as row) ->
      Dpa_util.Table.add_row t
        [ string_of_int workers;
          string_of_int n;
          Printf.sprintf "%.3f" dt;
          Printf.sprintf "%.1f" (rate row) ])
    rows;
  Dpa_util.Table.print t;
  let find w = List.find (fun (workers, _, _) -> workers = w) rows in
  let speedup = rate (find 4) /. rate (find 1) in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\nspeedup 4 workers vs 1: %.2fx (host parallelism: %d)\n" speedup cores;
  if cores < 4 then
    Printf.printf
      "note: requests are CPU-bound, so the pool can only scale up to the\n\
       host's available cores; run on >= 4 cores to see the full speedup.\n";
  if json then begin
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n  \"bench\": \"service\",\n  \"unit\": \"req/s\",\n";
    Buffer.add_string b
      (Printf.sprintf "  \"quick\": %b,\n  \"cores\": %d,\n  \"results\": [\n" quick cores);
    List.iteri
      (fun k ((workers, n, dt) as row) ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"workers\": %d, \"requests\": %d, \"seconds\": %s, \"req_per_s\": %s}%s\n"
             workers n (json_float dt) (json_float (rate row))
             (if k = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string b "  ],\n";
    Buffer.add_string b (Printf.sprintf "  \"speedup_4v1\": %s\n}\n" (json_float speedup));
    let oc = open_out "BENCH_service.json" in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote BENCH_service.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Service load generator (result-cache proof)                          *)
(* ------------------------------------------------------------------ *)

(* Drives a 2-worker self-hosted daemon with closed-loop client fleets
   of increasing width — each client a domain with its own connection
   issuing estimate requests back to back, so offered load rises with
   the fleet — over two traffic shapes: a "repetitive" mix cycling a
   small pool of circuits (production-like: the same cones come back
   again and again) and a "fresh" mix where every request is a circuit
   the server has never seen. Each shape runs once against the result
   cache and once bypassing it. Per-request latencies give p50/p99, the
   best fleet width gives throughput at saturation, and the server's
   own [stats] response gives the hit ratio. The headline number is the
   repetitive-mix p50 improvement of [use] over [bypass] — what the
   cache actually buys on realistic traffic. *)
let service_loadgen ?(quick = false) ?(json = false) () =
  let workers = 2 in
  let fleet_widths = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let per_client = if quick then 6 else 24 in
  let gen seed =
    Dpa_logic.Io.to_string
      (Dpa_workload.Generator.combinational
         { small_profile with
           Dpa_workload.Generator.seed;
           n_inputs = 32;
           n_outputs = 10;
           gates_per_output = 22 })
  in
  let repetitive_pool = Array.of_list (List.map gen [ 21; 22; 23; 24 ]) in
  let total_requests =
    List.fold_left (fun acc w -> acc + (w * per_client)) 0 fleet_widths
  in
  let fresh_texts = Array.init total_requests (fun i -> gen (1000 + i)) in
  let request_line ~cache ~id text =
    Dpa_service.Protocol.request_line
      { Dpa_service.Protocol.id;
        request =
          Dpa_service.Protocol.Estimate
            { source = Dpa_service.Protocol.Inline { text; format = `Dln };
              input_prob = 0.5;
              phases = None;
              budget = None };
        cache }
  in
  let cache_stats ~socket =
    let c = Dpa_service.Client.connect socket in
    Fun.protect ~finally:(fun () -> Dpa_service.Client.close c) @@ fun () ->
    let r =
      Dpa_service.Client.request c
        (Dpa_service.Protocol.request_line
           { Dpa_service.Protocol.id = 999_999;
             request = Dpa_service.Protocol.Stats;
             cache = `Use })
    in
    match Dpa_service.Protocol.parse_response r with
    | Ok { Dpa_service.Protocol.ok = true; result; _ } -> (
      match Dpa_util.Jsonlite.member_opt "cache" result with
      | Some cache ->
        let n key =
          match Dpa_util.Jsonlite.member_opt key cache with
          | Some (Dpa_util.Jsonlite.Num f) -> int_of_float f
          | _ -> 0
        in
        (n "hits", n "misses")
      | None -> (0, 0))
    | _ -> (0, 0)
  in
  (* one server per (shape, mode) run so hit ratios don't bleed across
     combinations; levels sweep ascending inside it, cache warmth
     accumulating as it would in a long-lived daemon *)
  let run ~cache ~text_of =
    Dpa_service.Client.with_self_hosted ~workers (fun ~socket ->
        let offset = ref 0 in
        let levels =
          List.map
            (fun width ->
              let base = !offset in
              offset := base + (width * per_client);
              let t0 = Unix.gettimeofday () in
              let clients =
                List.init width (fun c ->
                    Domain.spawn (fun () ->
                        let conn = Dpa_service.Client.connect socket in
                        Fun.protect
                          ~finally:(fun () -> Dpa_service.Client.close conn)
                        @@ fun () ->
                        Array.init per_client (fun i ->
                            let g = base + (c * per_client) + i in
                            let line = request_line ~cache ~id:(g + 1) (text_of g) in
                            let s0 = Unix.gettimeofday () in
                            let r = Dpa_service.Client.request conn line in
                            let dt = Unix.gettimeofday () -. s0 in
                            (match Dpa_service.Protocol.parse_response r with
                            | Ok { Dpa_service.Protocol.ok = true; _ } -> ()
                            | _ -> failwith ("loadgen request failed: " ^ r));
                            dt)))
              in
              let latencies =
                List.concat_map (fun d -> Array.to_list (Domain.join d)) clients
              in
              let dt = Unix.gettimeofday () -. t0 in
              (width, latencies, dt))
            fleet_widths
        in
        let hits, misses = cache_stats ~socket in
        (levels, hits, misses))
  in
  let percentile latencies p =
    let a = Array.of_list latencies in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then Float.nan
    else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
  in
  Printf.printf
    "\n=== service load (cache proof): %d-worker daemon, fleets %s ===\n\n"
    workers
    (String.concat "/" (List.map string_of_int fleet_widths));
  let combos =
    [ ("repetitive", `Use, fun g -> repetitive_pool.(g mod Array.length repetitive_pool));
      ("repetitive", `Bypass, fun g -> repetitive_pool.(g mod Array.length repetitive_pool));
      ("fresh", `Use, fun g -> fresh_texts.(g));
      ("fresh", `Bypass, fun g -> fresh_texts.(g)) ]
  in
  let t =
    Dpa_util.Table.create
      ~columns:
        [ ("workload", Dpa_util.Table.Left);
          ("cache", Dpa_util.Table.Left);
          ("fleet", Dpa_util.Table.Right);
          ("req/s", Dpa_util.Table.Right);
          ("p50 ms", Dpa_util.Table.Right);
          ("p99 ms", Dpa_util.Table.Right);
          ("hit ratio", Dpa_util.Table.Right) ]
  in
  let results =
    List.map
      (fun (workload, cache, text_of) ->
        let levels, hits, misses = run ~cache ~text_of in
        let probes = hits + misses in
        let hit_ratio =
          if probes = 0 then 0.0 else float_of_int hits /. float_of_int probes
        in
        let mode = match cache with `Use -> "use" | `Bypass -> "bypass" in
        let rows =
          List.map
            (fun (width, latencies, dt) ->
              let n = List.length latencies in
              let rate = float_of_int n /. Float.max dt 1e-9 in
              let p50 = 1e3 *. percentile latencies 50.0 in
              let p99 = 1e3 *. percentile latencies 99.0 in
              Dpa_util.Table.add_row t
                [ workload;
                  mode;
                  string_of_int width;
                  Printf.sprintf "%.1f" rate;
                  Printf.sprintf "%.3f" p50;
                  Printf.sprintf "%.3f" p99;
                  Printf.sprintf "%.2f" hit_ratio ];
              (width, n, dt, rate, p50, p99))
            levels
        in
        let pooled = List.concat_map (fun (_, l, _) -> l) levels in
        let saturation =
          List.fold_left (fun acc (_, _, _, r, _, _) -> Float.max acc r) 0.0 rows
        in
        ( workload,
          mode,
          rows,
          1e3 *. percentile pooled 50.0,
          1e3 *. percentile pooled 99.0,
          saturation,
          hit_ratio ))
      combos
  in
  Dpa_util.Table.print t;
  let pooled_p50 workload mode =
    let _, _, _, p50, _, _, _ =
      List.find (fun (w, m, _, _, _, _, _) -> w = workload && m = mode) results
    in
    p50
  in
  let sat workload mode =
    let _, _, _, _, _, s, _ =
      List.find (fun (w, m, _, _, _, _, _) -> w = workload && m = mode) results
    in
    s
  in
  let hit_ratio_of workload mode =
    let _, _, _, _, _, _, h =
      List.find (fun (w, m, _, _, _, _, _) -> w = workload && m = mode) results
    in
    h
  in
  let p50_speedup = pooled_p50 "repetitive" "bypass" /. pooled_p50 "repetitive" "use" in
  let sat_speedup = sat "repetitive" "use" /. sat "repetitive" "bypass" in
  Printf.printf
    "\nrepetitive mix: p50 %.3f ms -> %.3f ms (%.1fx), saturation %.1fx, hit ratio %.2f\n"
    (pooled_p50 "repetitive" "bypass")
    (pooled_p50 "repetitive" "use")
    p50_speedup sat_speedup
    (hit_ratio_of "repetitive" "use");
  if json then begin
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\n  \"bench\": \"service_load\",\n";
    Buffer.add_string b
      (Printf.sprintf "  \"quick\": %b,\n  \"workers\": %d,\n  \"runs\": [\n" quick
         workers);
    List.iteri
      (fun k (workload, mode, rows, p50, p99, saturation, hit_ratio) ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"workload\": \"%s\", \"cache\": \"%s\", \"p50_ms\": %s, \
              \"p99_ms\": %s, \"saturation_req_per_s\": %s, \"hit_ratio\": %s,\n\
             \     \"levels\": [\n"
             (json_escape workload) (json_escape mode) (json_float p50)
             (json_float p99) (json_float saturation) (json_float hit_ratio));
        List.iteri
          (fun j (width, n, dt, rate, lp50, lp99) ->
            Buffer.add_string b
              (Printf.sprintf
                 "      {\"fleet\": %d, \"requests\": %d, \"seconds\": %s, \
                  \"req_per_s\": %s, \"p50_ms\": %s, \"p99_ms\": %s}%s\n"
                 width n (json_float dt) (json_float rate) (json_float lp50)
                 (json_float lp99)
                 (if j = List.length rows - 1 then "" else ",")))
          rows;
        Buffer.add_string b
          (Printf.sprintf "    ]}%s\n" (if k = List.length results - 1 then "" else ","));
        ())
      results;
    Buffer.add_string b "  ],\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"hit_ratio_repetitive\": %s,\n  \"p50_speedup_repetitive\": %s,\n\
         \  \"saturation_speedup_repetitive\": %s\n}\n"
         (json_float (hit_ratio_of "repetitive" "use"))
         (json_float p50_speedup) (json_float sat_speedup));
    let oc = open_out "BENCH_service_load.json" in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote BENCH_service_load.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Intra-request parallel speedup                                       *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of the two pool-driven hot paths — per-cone estimation and
   the speculative greedy search — at jobs = 1/2/4, plus the full MA/MP
   flow on the largest real netlist in data/. Every workload returns a
   float fingerprint that must be bitwise identical at every jobs count;
   the bench aborts if the determinism contract is ever violated, so the
   speedup numbers are only ever reported for identical answers. *)
let parallel_bench ?(quick = false) ?(json = false) () =
  let job_counts = [ 1; 2; 4 ] in
  let repeats = if quick then 1 else 3 in
  (* heavier than [small_profile] so per-cone BDD work dominates the
     pool's fan-out overhead *)
  let est_net =
    Dpa_synth.Opt.optimize
      (Dpa_workload.Generator.combinational
         { small_profile with
           Dpa_workload.Generator.seed = 19;
           n_inputs = 32;
           n_outputs = 12;
           gates_per_output = 24 })
  in
  let est_mapped =
    Dpa_domino.Mapped.map
      (Dpa_synth.Inverterless.realize est_net
         (Phase.all_positive (Netlist.num_outputs est_net)))
  in
  let est_probs = Array.make (Netlist.num_inputs est_net) 0.5 in
  (* a node cap no cone reaches: only a budgeted estimate fans its shards
     across the pool (unbudgeted it is one manager), yet every cone stays
     exact *)
  let budget = Dpa_power.Engine.bounded ~max_bdd_nodes:1_000_000 () in
  let workloads =
    [ ("fig5.estimate", fun pool ->
        let r =
          Dpa_power.Engine.estimate ~par:pool ~budget ~input_probs:est_probs est_mapped
        in
        r.Dpa_power.Engine.report.Dpa_power.Estimate.total);
      ("fig6.greedy-optimize", fun pool ->
        let config =
          { (Dpa_phase.Optimizer.default_config ~input_probs:est_probs) with
            Dpa_phase.Optimizer.strategy = Dpa_phase.Optimizer.Greedy;
            par = Some pool }
        in
        (Dpa_phase.Optimizer.minimize_power config est_net).Dpa_phase.Optimizer.power) ]
    @
    let apex7 = "data/apex7_synthetic.blif" in
    if not (Sys.file_exists apex7) then []
    else begin
      let ic = open_in_bin apex7 in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Dpa_logic.Blif.of_string text with
      | Error _ -> []
      | Ok raw ->
        let net = Dpa_synth.Opt.optimize raw in
        let mapped =
          Dpa_domino.Mapped.map
            (Dpa_synth.Inverterless.realize net
               (Phase.all_positive (Netlist.num_outputs net)))
        in
        let probs = Array.make (Netlist.num_inputs net) 0.5 in
        [ ("apex7.estimate", fun pool ->
            let r = Dpa_power.Engine.estimate ~par:pool ~budget ~input_probs:probs mapped in
            r.Dpa_power.Engine.report.Dpa_power.Estimate.total);
          ("apex7.ma-vs-mp-flow", fun pool ->
            let config =
              { Dpa_core.Flow.default_config with Dpa_core.Flow.par = Some pool }
            in
            let r = Dpa_core.Flow.compare_ma_mp ~config raw in
            r.Dpa_core.Flow.mp.Dpa_core.Flow.power) ]
    end
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\n=== intra-request parallel speedup (host parallelism: %d) ===\n\n" cores;
  let measure (name, f) =
    let runs =
      List.map
        (fun jobs ->
          Dpa_util.Par.with_pool ~jobs (fun pool ->
              let fingerprint = f pool in
              (* warmed: the line above already ran the workload once *)
              let best = ref infinity in
              for _ = 1 to repeats do
                let t0 = Unix.gettimeofday () in
                let v = f pool in
                let dt = Unix.gettimeofday () -. t0 in
                if Int64.bits_of_float v <> Int64.bits_of_float fingerprint then begin
                  Printf.eprintf
                    "parallel bench: %s not deterministic at jobs=%d (%h vs %h)\n"
                    name jobs v fingerprint;
                  exit 1
                end;
                if dt < !best then best := dt
              done;
              (jobs, !best, fingerprint)))
        job_counts
    in
    let _, t1, fp1 = List.hd runs in
    List.iter
      (fun (jobs, _, fp) ->
        if Int64.bits_of_float fp <> Int64.bits_of_float fp1 then begin
          Printf.eprintf
            "parallel bench: %s differs between jobs=1 and jobs=%d (%h vs %h)\n"
            name jobs fp fp1;
          exit 1
        end)
      runs;
    (name, List.map (fun (jobs, dt, _) -> (jobs, dt, t1 /. Float.max dt 1e-9)) runs)
  in
  let rows = List.map measure workloads in
  let t =
    Dpa_util.Table.create
      ~columns:
        [ ("workload", Dpa_util.Table.Left);
          ("jobs", Dpa_util.Table.Right);
          ("seconds", Dpa_util.Table.Right);
          ("speedup", Dpa_util.Table.Right) ]
  in
  List.iter
    (fun (name, runs) ->
      List.iter
        (fun (jobs, dt, speedup) ->
          Dpa_util.Table.add_row t
            [ name;
              string_of_int jobs;
              Printf.sprintf "%.4f" dt;
              Printf.sprintf "%.2fx" speedup ])
        runs)
    rows;
  Dpa_util.Table.print t;
  Printf.printf "\nall workloads bit-identical across jobs counts\n";
  if cores < 4 then
    Printf.printf
      "note: speedup is bounded by the host's available cores (%d here);\n\
       run on >= 4 cores to see the full effect.\n"
      cores;
  if json then begin
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n  \"bench\": \"parallel\",\n  \"unit\": \"s\",\n";
    Buffer.add_string b
      (Printf.sprintf "  \"quick\": %b,\n  \"cores\": %d,\n  \"results\": [\n" quick cores);
    let n_rows = List.length rows in
    List.iteri
      (fun i (name, runs) ->
        let n_runs = List.length runs in
        List.iteri
          (fun k (jobs, dt, speedup) ->
            Buffer.add_string b
              (Printf.sprintf
                 "    {\"workload\": \"%s\", \"jobs\": %d, \"seconds\": %s, \"speedup\": %s}%s\n"
                 (json_escape name) jobs (json_float dt) (json_float speedup)
                 (if i = n_rows - 1 && k = n_runs - 1 then "" else ",")))
          runs)
      rows;
    Buffer.add_string b "  ]\n}\n";
    let oc = open_out "BENCH_parallel.json" in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote BENCH_parallel.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Bechamel suite                                                       *)
(* ------------------------------------------------------------------ *)

let perf ?(json = false) ?(metrics = false) () =
  Printf.printf "\n=== Bechamel micro-benchmarks (one per experiment) ===\n\n";
  let tests =
    Test.make_grouped ~name:"dpa"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) kernels)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let t =
    Dpa_util.Table.create
      ~columns:
        [ ("benchmark", Dpa_util.Table.Left);
          ("time/run", Dpa_util.Table.Right);
          ("r²", Dpa_util.Table.Right) ]
  in
  let pretty_time ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let measured =
    List.map
      (fun (name, r) ->
        let ns =
          match Analyze.OLS.estimates r with Some [ e ] -> e | Some _ | None -> Float.nan
        in
        (name, ns, Analyze.OLS.r_square r))
      rows
  in
  List.iter
    (fun (name, ns, rsq) ->
      Dpa_util.Table.add_row t
        [ name;
          (if Float.is_nan ns then "n/a" else pretty_time ns);
          (match rsq with Some v -> Printf.sprintf "%.3f" v | None -> "-") ])
    measured;
  Dpa_util.Table.print t;
  if json then write_kernel_json ~metrics ~path:"BENCH_bdd_kernel.json" measured
  else if metrics then begin
    ignore (greedy_registry_snapshot ());
    print_string (Dpa_obs.Metrics.dump ())
  end

let quick ?(metrics = false) () =
  Printf.printf "=== quick smoke: each bench kernel once ===\n%!";
  List.iter
    (fun (name, f) ->
      Printf.printf "  %-35s %!" name;
      f ();
      Printf.printf "ok\n%!")
    kernels;
  Printf.printf "all %d kernels ok\n" (List.length kernels);
  if metrics then print_string (Dpa_obs.Metrics.dump ())

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all () =
  (* fig3 and fig4 share a regeneration; run each distinct experiment once *)
  Experiments.fig2 ();
  Experiments.fig3_4 ();
  Experiments.fig5 ();
  Experiments.fig6 ();
  Experiments.fig7 ();
  Experiments.fig8 ();
  Experiments.fig9 ();
  Experiments.fig10 ();
  Experiments.table1 ();
  Experiments.table1_probs ();
  Experiments.table2 ();
  Experiments.casestudy ();
  Experiments.seq_table ();
  Experiments.validate ();
  Experiments.ablation ();
  Experiments.sim_compile ();
  Experiments.reorder ();
  service_throughput ();
  service_loadgen ();
  parallel_bench ();
  perf ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> String.length a > 1 && a.[0] = '-') args in
  let json = List.mem "--json" flags
  and is_quick = List.mem "--quick" flags
  and metrics = List.mem "--metrics" flags in
  List.iter
    (fun f ->
      if f <> "--json" && f <> "--quick" && f <> "--metrics" then begin
        Printf.eprintf "unknown flag %S; flags: --json, --quick, --metrics\n" f;
        exit 1
      end)
    flags;
  let experiments =
    [ ("fig2", Experiments.fig2);
      ("fig3", Experiments.fig3_4);
      ("fig4", Experiments.fig3_4);
      ("fig5", Experiments.fig5);
      ("fig6", Experiments.fig6);
      ("fig7", Experiments.fig7);
      ("fig8", Experiments.fig8);
      ("fig9", Experiments.fig9);
      ("fig10", Experiments.fig10);
      ("table1", Experiments.table1);
      ("table1-probs", Experiments.table1_probs);
      ("table2", Experiments.table2);
      ("casestudy", Experiments.casestudy);
      ("seqtable", Experiments.seq_table);
      ("validate", Experiments.validate);
      ("ablation", Experiments.ablation);
      ("sim", fun () -> Experiments.sim_compile ~quick:is_quick ~json ());
      ("reorder", fun () -> Experiments.reorder ~quick:is_quick ~json ());
      ("service", fun () -> service_throughput ~quick:is_quick ~json ());
      ("loadgen", fun () -> service_loadgen ~quick:is_quick ~json ());
      ("parallel", fun () -> parallel_bench ~quick:is_quick ~json ());
      ("perf", perf ~json ~metrics) ]
  in
  match names with
  | [] -> if is_quick then quick ~metrics () else all ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt (String.lowercase_ascii name) experiments with
        | Some f -> if is_quick && name = "perf" then quick ~metrics () else f ()
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
      names
