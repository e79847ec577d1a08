(* Shared plumbing of the workloads: the workload record, per-layer
   accumulators, timing and the metric lists both modes print. *)

module J = Dpa_util.Jsonlite
module Clock = Dpa_obs.Clock
module Metrics = Dpa_obs.Metrics

let now () = float_of_int (Clock.now_ns ()) *. 1e-9

let config_path = "perfbench/workloads.json"

let benchmark_path = "BENCHMARK.json"

let read_json path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  J.parse text

let load_config () = read_json config_path

let workload_config name =
  J.member name (J.member "workloads" (load_config ()))

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* Set-up is repeated [setup_rounds] times, [setup_pause_s] apart, and
   its median reported. The host's speed swings by up to 1.6x and holds
   each level for about a second, so rounds run back to back would all
   land on one level; spaced out they cover about ten seconds of it. *)
let setup_rounds cfg = J.to_int (J.member "setup_rounds" cfg)

let setup_pause_s = 0.3

(* ---- per-layer accumulation ----------------------------------------- *)

(* Additive per-layer totals; ratios are derived from their summed
   numerators and denominators at the end. *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 64

let get (a : acc) k = Option.value (Hashtbl.find_opt a k) ~default:0.

let bump (a : acc) k v = Hashtbl.replace a k (get a k +. v)

let bump_max (a : acc) k v = Hashtbl.replace a k (Float.max (get a k) v)

let merge_into (dst : acc) (src : acc) =
  Hashtbl.iter
    (fun k v -> if k = "bdd.peak_nodes" then bump_max dst k v else bump dst k v)
    src

(* A ratio with nothing attempted reads 1: no work was wasted. *)
let ratio num den = if den > 0. then num /. den else 1.

(* Registry cells the benchmark reads after a reset. Reading registers a
   name that no layer has touched yet, which is harmless. *)
let counter name = float_of_int (Metrics.counter_value (Metrics.counter name))

let registry_counters =
  [
    "phase.measure.evaluations";
    "phase.measure.cache_hits";
    "phase.measure.prefetched";
    "phase.greedy.moves_committed";
    "phase.greedy.moves_rejected";
    "engine.cones.exact";
    "engine.cones.reordered";
    "engine.cones.simulated";
    "engine.sim_cycles";
    "bdd.nodes_allocated";
    "bdd.unique.hits";
    "bdd.unique.probes";
    "bdd.ite.hits";
    "bdd.ite.probes";
    "bdd.sift.swaps";
  ]

let absorb_registry (a : acc) =
  List.iter (fun name -> bump a name (counter name)) registry_counters;
  bump_max a "bdd.peak_nodes"
    (Metrics.gauge_value (Metrics.gauge "bdd.manager.peak_nodes"))

(* ---- metric lists ----------------------------------------------------- *)

(* Names and units of the [kind] ("end_to_end" or "per_layer") metrics as
   BENCHMARK.json declares them: units live only there, and the names this
   program prints must equal them. *)
let declared kind =
  List.map
    (fun m -> (J.to_string (J.member "name" m), J.to_string (J.member "unit" m)))
    (J.to_list (J.member kind (read_json benchmark_path)))

let same_names what ~expected actual =
  let missing = List.filter (fun n -> not (List.mem n actual)) expected in
  let extra = List.filter (fun n -> not (List.mem n expected)) actual in
  if missing <> [] || extra <> [] then
    failwith
      (Printf.sprintf "%s disagrees with %s: missing [%s], extra [%s]" what benchmark_path
         (String.concat " " missing) (String.concat " " extra))

(* The declared metrics in declared order, each with its value from
   [values]; fails when the two name sets differ. *)
let with_units kind values =
  let decl = declared kind in
  same_names ("the printed " ^ kind ^ " metrics") ~expected:(List.map fst decl) (List.map fst values);
  List.map (fun (name, unit_) -> { Harness.name; value = List.assoc name values; unit_ }) decl

type e2e = {
  setup_s : float;
  sweep_s : float;
  latencies_ms : float array;  (** one per operation in time order; infinity = failed *)
  slices : int;  (** latency percentiles are medians over this many parts *)
  req_per_s : float;
  mp_power_ratio : float;
  mp_area_ratio : float;
  exact_cone_share : float;
  ok_ratio : float;
  cap_ms : float;  (** what an infinitely late operation reads as *)
}

(* With fewer than 1000 operations p99 has under ten samples beyond it,
   so the tail is the largest latency instead. *)
let tail_ms lat =
  Harness.percentile lat (if Harness.supports ~p:99. (Array.length lat) then 99. else 100.)

let end_to_end e =
  let cap x = if Float.is_finite x then x else e.cap_ms in
  let summary f = Harness.sliced ~slices:e.slices (fun a -> cap (f a)) e.latencies_ms in
  with_units "end_to_end"
    [
      ("setup_s", e.setup_s);
      ("sweep_s", e.sweep_s);
      ("req_p50_ms", summary (fun a -> Harness.percentile a 50.));
      ("req_p99_ms", summary tail_ms);
      ("req_per_s", e.req_per_s);
      ("mp_power_ratio", e.mp_power_ratio);
      ("mp_area_ratio", e.mp_area_ratio);
      ("exact_cone_share", e.exact_cone_share);
      ("ok_ratio", e.ok_ratio);
      ("peak_rss_mb", peak_rss_mb ());
    ]

(* Every circuit of every flow workload, each reported as circuit.<name>.s. *)
let flow_circuits () =
  List.concat_map
    (fun (_, w) ->
      if J.to_string (J.member "kind" w) <> "flow" then []
      else List.map (fun c -> J.to_string (J.member "name" c)) (J.to_list (J.member "circuits" w)))
    (match J.member "workloads" (load_config ()) with J.Obj ws -> ws | _ -> [])

let expand_circuits names =
  List.concat_map
    (fun n ->
      if n = "circuit.<name>.s" then
        List.map (fun c -> Printf.sprintf "circuit.%s.s" c) (flow_circuits ())
      else [ n ])
    names

(* Every per-layer metric this program computes. A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer_names () =
  expand_circuits
    [
      "workload.build_s"; "synth.opt_s"; "ma.search_s"; "realize.map_s"; "timing.sta_s";
      "seq.partition_s"; "seq.mfvs_s"; "flow.digest_s"; "phase.search_s"; "phase.search_self_s";
      "phase.base_probs_s"; "phase.measure.evals"; "phase.measure.cache_hits";
      "phase.measure.prefetched"; "phase.measure.eval_s"; "phase.greedy.commit_ratio";
      "power.estimate_s"; "power.estimate_self_s"; "engine.cones.exact"; "engine.cones.reordered";
      "engine.cones.simulated"; "engine.cone_built_s"; "engine.cone_failed_s";
      "engine.exact_yield"; "bdd.nodes_allocated"; "bdd.unique.hit_ratio"; "bdd.ite.hit_ratio";
      "bdd.peak_nodes"; "bdd.sift.swaps"; "sim.run_s"; "sim.cycles"; "par.tasks"; "par.steals";
      "circuit.<name>.s"; "flow.sweep_traced_s"; "flow.unattributed_s";
      "quality.power_saving_pct"; "quality.area_penalty_pct"; "service.queue_wait_p50_ms";
      "service.queue_wait_p99_ms"; "service.request_p50_ms"; "service.cache.hit_ratio";
      "service.worker.busy_frac"; "service.overloaded"; "service.errors"; "trace.overhead_pct";
      "loadgen.lag_p99_ms";
    ]

let keys = function J.Obj kvs -> List.map fst kvs | _ -> []

(* Before a run: BENCHMARK.json, the definitions and layer map of
   workloads.json, and the per-layer names above must all name the same
   metrics. *)
let check_declarations () =
  let config = load_config () in
  let e2e = List.map fst (declared "end_to_end") and layers = List.map fst (declared "per_layer") in
  same_names (config_path ^ " end_to_end") ~expected:e2e (keys (J.member "end_to_end" config));
  same_names (config_path ^ " layer_map") ~expected:layers
    (expand_circuits (keys (J.member "layer_map" config)));
  same_names "the per-layer metrics computed" ~expected:layers (per_layer_names ())

(* Derived per-layer values from the accumulated raw totals. *)
let derive (a : acc) =
  let set k v = Hashtbl.replace a k v in
  set "phase.greedy.commit_ratio"
    (ratio (get a "phase.greedy.moves_committed")
       (get a "phase.greedy.moves_committed" +. get a "phase.greedy.moves_rejected"));
  set "engine.exact_yield"
    (ratio (get a "engine.cone_built_n")
       (get a "engine.cone_built_n" +. get a "engine.cone_failed_n"));
  set "bdd.unique.hit_ratio" (ratio (get a "bdd.unique.hits") (get a "bdd.unique.probes"));
  set "bdd.ite.hit_ratio" (ratio (get a "bdd.ite.hits") (get a "bdd.ite.probes"));
  set "sim.cycles" (get a "engine.sim_cycles");
  set "phase.measure.evals" (get a "phase.measure.evaluations")

let per_layer (a : acc) =
  derive a;
  with_units "per_layer" (List.map (fun name -> (name, get a name)) (per_layer_names ()))

let print_result ~correct ~attempted ~failed metrics =
  print_endline (Harness.result_line ~correct ~attempted ~failed metrics)
