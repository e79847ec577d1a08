(* The observability layer: span nesting and exception safety, near-zero
   cost when disabled, Chrome-trace JSON validated through an independent
   parser (Jsonlite), exact histogram boundary semantics, and the
   end-to-end span names the flow and the degradation ladder must emit. *)

module Jsonlite = Dpa_util.Jsonlite
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics
module Profile = Dpa_obs.Profile
module Flow = Dpa_core.Flow
module Engine = Dpa_power.Engine

(* Trace and Metrics are process-global; every test restores a clean
   slate so suite order never matters. *)
let with_trace f =
  Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      Trace.stop ();
      Trace.clear ();
      Trace.set_span_hook None)
    f

let span_names () =
  List.filter_map
    (fun (e : Trace.event) -> if e.kind = `Span then Some e.name else None)
    (Trace.events ())

let find_span name =
  match List.find_opt (fun (e : Trace.event) -> e.name = name) (Trace.events ()) with
  | Some e -> e
  | None -> Alcotest.failf "no event named %S in trace" name

(* ---- span recording ----------------------------------------------- *)

let test_span_nesting () =
  with_trace @@ fun () ->
  Alcotest.(check int) "depth outside" 0 (Trace.depth ());
  Trace.with_span "outer" (fun () ->
      Alcotest.(check int) "depth in outer" 1 (Trace.depth ());
      Trace.with_span "inner" ~args:[ ("k", Trace.Int 7) ] (fun () ->
          Alcotest.(check int) "depth in inner" 2 (Trace.depth ()));
      Trace.instant "tick");
  Alcotest.(check int) "depth after" 0 (Trace.depth ());
  (* spans are emitted when they close: inner before outer *)
  Alcotest.(check (list string)) "emission order" [ "inner"; "outer" ] (span_names ());
  let outer = find_span "outer" and inner = find_span "inner" in
  Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
  Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
  Alcotest.(check bool) "inner arg kept" true
    (List.mem ("k", Trace.Int 7) inner.Trace.args);
  (* timestamp containment is what lets Perfetto rebuild the tree *)
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Trace.ts_ns >= outer.Trace.ts_ns);
  Alcotest.(check bool) "inner ends before outer" true
    (inner.Trace.ts_ns + inner.Trace.dur_ns
    <= outer.Trace.ts_ns + outer.Trace.dur_ns)

let test_span_closes_on_exception () =
  with_trace @@ fun () ->
  (try Trace.with_span "doomed" (fun () -> raise Exit) with
  | Exit -> ());
  Alcotest.(check int) "depth restored" 0 (Trace.depth ());
  Alcotest.(check (list string)) "span still recorded" [ "doomed" ] (span_names ());
  (* and the recorder still works afterwards *)
  Trace.with_span "next" (fun () -> ());
  Alcotest.(check int) "subsequent spans fine" 2 (List.length (span_names ()))

let test_add_args_lands_on_innermost () =
  with_trace @@ fun () ->
  Trace.with_span "parent" (fun () ->
      Trace.with_span "child" (fun () ->
          Trace.add_args [ ("method", Trace.Str "simulated") ]));
  let child = find_span "child" and parent = find_span "parent" in
  Alcotest.(check bool) "child tagged" true
    (List.mem_assoc "method" child.Trace.args);
  Alcotest.(check bool) "parent untouched" false
    (List.mem_assoc "method" parent.Trace.args)

let test_disabled_tracing_allocates_nothing () =
  Trace.stop ();
  Trace.clear ();
  Trace.set_span_hook None;
  let f = fun () -> () in
  (* warm up so any one-time allocation is out of the measured window *)
  for _ = 1 to 100 do
    Trace.with_span "obs.disabled" f
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Trace.with_span "obs.disabled" f
  done;
  let allocated = Gc.minor_words () -. before in
  (* zero per-call allocation: a small constant tolerates the boxed
     floats Gc.minor_words itself may produce under bytecode *)
  if allocated > 256.0 then
    Alcotest.failf "disabled with_span allocated %.0f minor words over 10k calls"
      allocated;
  Alcotest.(check int) "nothing recorded" 0 (Trace.events_recorded ())

let test_span_hook_fires_without_buffer () =
  Trace.stop ();
  Trace.clear ();
  let fired = ref [] in
  Trace.set_span_hook (Some (fun name dur -> fired := (name, dur) :: !fired));
  Fun.protect ~finally:(fun () -> Trace.set_span_hook None) @@ fun () ->
  Trace.with_span "hooked" (fun () -> ());
  (match !fired with
  | [ (name, dur) ] ->
    Alcotest.(check string) "hook saw span" "hooked" name;
    Alcotest.(check bool) "non-negative duration" true (dur >= 0)
  | l -> Alcotest.failf "expected 1 hook call, got %d" (List.length l));
  Alcotest.(check int) "buffer stays empty" 0 (Trace.events_recorded ())

(* ---- Chrome trace JSON export ------------------------------------- *)

let test_chrome_json_round_trip () =
  with_trace @@ fun () ->
  Trace.with_span "outer" ~args:[ ("quoted", Trace.Str "a\"b\nc") ] (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.instant "blip" ~args:[ ("ok", Trace.Bool true) ];
      Trace.counter "level" [ ("remaining", 42.0) ]);
  let json = Jsonlite.parse (Trace.to_json ()) in
  Alcotest.(check string) "display unit" "ms"
    (Jsonlite.to_string (Jsonlite.member "displayTimeUnit" json));
  let events = Jsonlite.to_list (Jsonlite.member "traceEvents" json) in
  Alcotest.(check int) "all events exported" (Trace.events_recorded ())
    (List.length events);
  let by_name n =
    match
      List.find_opt
        (fun e -> Jsonlite.to_string (Jsonlite.member "name" e) = n)
        events
    with
    | Some e -> e
    | None -> Alcotest.failf "no JSON event named %S" n
  in
  List.iter
    (fun e ->
      Alcotest.(check string) "category" "dpa"
        (Jsonlite.to_string (Jsonlite.member "cat" e));
      Alcotest.(check int) "pid" 1 (Jsonlite.to_int (Jsonlite.member "pid" e));
      Alcotest.(check int) "tid" 1 (Jsonlite.to_int (Jsonlite.member "tid" e));
      ignore (Jsonlite.to_float (Jsonlite.member "ts" e)))
    events;
  let outer = by_name "outer" and inner = by_name "inner" in
  Alcotest.(check string) "span phase" "X"
    (Jsonlite.to_string (Jsonlite.member "ph" outer));
  Alcotest.(check string) "escape round-trips" "a\"b\nc"
    (Jsonlite.to_string (Jsonlite.member "quoted" (Jsonlite.member "args" outer)));
  (* nesting is reconstructable from ts/dur containment on one tid *)
  let ts e = Jsonlite.to_float (Jsonlite.member "ts" e)
  and dur e = Jsonlite.to_float (Jsonlite.member "dur" e) in
  Alcotest.(check bool) "containment" true
    (ts inner >= ts outer && ts inner +. dur inner <= ts outer +. dur outer);
  let blip = by_name "blip" in
  Alcotest.(check string) "instant phase" "i"
    (Jsonlite.to_string (Jsonlite.member "ph" blip));
  Alcotest.(check string) "instant scope" "t"
    (Jsonlite.to_string (Jsonlite.member "s" blip));
  let level = by_name "level" in
  Alcotest.(check string) "counter phase" "C"
    (Jsonlite.to_string (Jsonlite.member "ph" level));
  Alcotest.check (Alcotest.float 1e-9) "counter series" 42.0
    (Jsonlite.to_float (Jsonlite.member "remaining" (Jsonlite.member "args" level)))

(* ---- metrics registry --------------------------------------------- *)

let test_histogram_boundary_bucketing () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] "obs.test.bounds" in
  (* le semantics: a value lands in the first bucket with v <= bound *)
  Metrics.observe h 0.0;
  Metrics.observe h 1.0;
  (* boundary: belongs to the bucket it bounds *)
  Metrics.observe h 1.0000001;
  Metrics.observe h 2.0;
  Metrics.observe h 5.0;
  Metrics.observe h 5.0000001;
  (* just past the last bound: overflow *)
  let buckets, overflow = Metrics.bucket_counts h in
  Alcotest.(check (array (pair (float 1e-9) int)))
    "per-bucket counts"
    [| (1.0, 2); (2.0, 2); (5.0, 1) |]
    buckets;
  Alcotest.(check int) "overflow" 1 overflow;
  Alcotest.(check int) "total count" 6 (Metrics.histogram_count h);
  Alcotest.check (Alcotest.float 1e-6) "sum" 14.0000002 (Metrics.histogram_sum h)

let test_registry_kind_clash_and_monotonicity () =
  Metrics.reset ();
  let c = Metrics.counter "obs.test.clash" in
  Metrics.add c 3;
  Alcotest.(check int) "get-or-create returns same cell" 3
    (Metrics.counter_value (Metrics.counter "obs.test.clash"));
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"obs.test.clash\" is already registered as a counter")
    (fun () -> ignore (Metrics.gauge "obs.test.clash"));
  Alcotest.check_raises "counters only go up"
    (Invalid_argument "Metrics.add: negative delta") (fun () -> Metrics.add c (-1));
  let g = Metrics.gauge "obs.test.peak" in
  Metrics.set_max g 5.0;
  Metrics.set_max g 3.0;
  Alcotest.check (Alcotest.float 1e-9) "set_max keeps maximum" 5.0
    (Metrics.gauge_value g)

let test_metrics_json_and_reset () =
  Metrics.reset ();
  let c = Metrics.counter "obs.test.count" in
  Metrics.add c 11;
  let g = Metrics.gauge "obs.test.level" in
  Metrics.set g 2.5;
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] "obs.test.lat" in
  Metrics.observe h 0.5;
  Metrics.observe h 7.0;
  let json = Jsonlite.parse (Metrics.to_json ()) in
  Alcotest.(check int) "counter exported" 11
    (Jsonlite.to_int
       (Jsonlite.member "obs.test.count" (Jsonlite.member "counters" json)));
  Alcotest.check (Alcotest.float 1e-9) "gauge exported" 2.5
    (Jsonlite.to_float
       (Jsonlite.member "obs.test.level" (Jsonlite.member "gauges" json)));
  let hj = Jsonlite.member "obs.test.lat" (Jsonlite.member "histograms" json) in
  Alcotest.(check int) "histogram count exported" 2
    (Jsonlite.to_int (Jsonlite.member "count" hj));
  let first_bucket = List.hd (Jsonlite.to_list (Jsonlite.member "buckets" hj)) in
  Alcotest.check (Alcotest.float 1e-9) "bucket bound" 1.0
    (Jsonlite.to_float (Jsonlite.member "le" first_bucket));
  Alcotest.(check int) "bucket count" 1
    (Jsonlite.to_int (Jsonlite.member "count" first_bucket));
  (* reset zeroes values but keeps registrations (held cells stay valid) *)
  Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_count h);
  Alcotest.(check bool) "registration kept" true
    (List.mem "obs.test.count" (Metrics.names ()));
  Metrics.add c 1;
  Alcotest.(check int) "held cell still live" 1
    (Metrics.counter_value (Metrics.counter "obs.test.count"))

let test_profile_bridges_spans_to_metrics () =
  Metrics.reset ();
  Trace.stop ();
  Trace.clear ();
  Profile.enable ();
  Fun.protect ~finally:(fun () -> Profile.disable ()) @@ fun () ->
  Trace.with_span "obs.bridge" (fun () -> ());
  Trace.with_span "obs.bridge" (fun () -> ());
  let h = Metrics.histogram "span.obs.bridge.ms" in
  Alcotest.(check int) "two observations" 2 (Metrics.histogram_count h);
  Alcotest.(check bool) "trace buffer off" true (Trace.events_recorded () = 0)

(* ---- end-to-end span coverage ------------------------------------- *)

let test_flow_emits_expected_spans () =
  with_trace @@ fun () ->
  let net = Dpa_workload.Examples.fig5 () in
  ignore (Flow.compare_ma_mp net);
  let names = span_names () in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "flow.compare"; "flow.min_area"; "flow.min_power"; "flow.realize";
      "flow.optimize"; "phase.optimize"; "engine.estimate" ];
  Alcotest.(check bool) "block estimation spans present" true
    (List.mem "estimate.block" names);
  (* the optimizer span records which strategy ran and how hard it worked *)
  let opt = find_span "phase.optimize" in
  Alcotest.(check bool) "strategy tagged" true
    (List.mem_assoc "strategy" opt.Trace.args);
  Alcotest.(check bool) "measurements tagged" true
    (List.mem_assoc "measurements" opt.Trace.args)

let test_flow_estimates_each_assignment_once () =
  let run ?budget net =
    with_trace @@ fun () ->
    let r = Flow.compare_ma_mp ~config:{ Flow.default_config with Flow.budget } net in
    (r, List.length (List.filter (String.equal "engine.estimate") (span_names ())))
  in
  let phases (r : Flow.realization) = Dpa_synth.Phase.to_string r.Flow.assignment in
  (* budgeted: MA's final estimate seeds the exhaustive search, which
     prices the 7 other assignments, and MP's price is the search's *)
  let r, spans =
    run ~budget:(Engine.bounded ~max_bdd_nodes:50 ())
      (Testkit.load_blif "../data/frg1_synthetic.blif")
  in
  Alcotest.(check string) "frg1 MA" "+++" (phases r.Flow.ma);
  Alcotest.(check string) "frg1 MP" "---" (phases r.Flow.mp);
  Alcotest.(check int) "frg1 measurements" 8 r.Flow.mp.Flow.measurements;
  Alcotest.(check int) "frg1 engine.estimate spans" 8 spans;
  (* unbudgeted, MP = MA: MP reuses MA's realization *)
  let net = Dpa_logic.Netlist.create () in
  let a = Dpa_logic.Netlist.add_input net and b = Dpa_logic.Netlist.add_input net in
  Dpa_logic.Netlist.add_output net "y"
    (Dpa_logic.Netlist.add_gate net (Dpa_logic.Gate.And [| a; b |]));
  let r, spans = run net in
  Alcotest.(check string) "and2 MA" "+" (phases r.Flow.ma);
  Alcotest.(check string) "and2 MP" "+" (phases r.Flow.mp);
  Alcotest.(check int) "and2 engine.estimate spans" 1 spans

let test_budgeted_estimate_tags_ladder_method () =
  with_trace @@ fun () ->
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  let mapped =
    Dpa_domino.Mapped.map
      (Dpa_synth.Inverterless.realize net (Dpa_synth.Phase.all_positive 2))
  in
  let budget = Engine.bounded ~max_bdd_nodes:4 ~fallback:Engine.Simulate () in
  let est = Engine.estimate ~budget ~input_probs:(Array.make 4 0.5) mapped in
  Alcotest.(check bool) "budget actually forced a fallback" false
    (Engine.all_exact est.Engine.degradation);
  let events = Trace.events () in
  let cones =
    List.filter (fun (e : Trace.event) -> e.name = "engine.cone") events
  in
  Alcotest.(check bool) "per-cone spans present" true (cones <> []);
  List.iter
    (fun (e : Trace.event) ->
      match List.assoc_opt "rung" e.Trace.args with
      | Some (Trace.Str ("exact" | "retry")) -> ()
      | Some _ -> Alcotest.failf "engine.cone has non-string rung arg"
      | None -> Alcotest.failf "engine.cone span missing rung arg")
    cones;
  let methods =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.name = "engine.cone.method" then
          match List.assoc_opt "method" e.Trace.args with
          | Some (Trace.Str m) -> Some m
          | _ -> Alcotest.failf "engine.cone.method missing method arg"
        else None)
      events
  in
  Alcotest.(check int) "one method tag per cone" 2 (List.length methods);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m ^ " is a ladder rung") true
        (List.mem m [ "exact"; "reordered"; "simulated" ]))
    methods;
  Alcotest.(check bool) "tiny budget forced simulation" true
    (List.mem "simulated" methods);
  Alcotest.(check bool) "ladder instants present" true
    (List.exists (fun (e : Trace.event) -> e.name = "engine.ladder.sim") events);
  Alcotest.(check bool) "budget counter track present" true
    (List.exists (fun (e : Trace.event) -> e.name = "engine.budget") events);
  (* the set-up and the retry rung are spans of their own, so neither is
     booked as [engine.estimate] or [engine.shard] self time *)
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " span present") true (List.mem name (span_names ())))
    [ "engine.plan"; "engine.shard"; "engine.retry" ]

let test_blif_parse_span () =
  with_trace @@ fun () ->
  let text =
    let ic = open_in_bin "../data/frg1_synthetic.blif" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (match Dpa_logic.Blif.sequential_of_string text with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "frg1 failed to parse: %s" msg);
  let parse = find_span "blif.parse" in
  let int_arg k =
    match List.assoc_opt k parse.Trace.args with
    | Some (Trace.Int v) -> v
    | _ -> Alcotest.failf "blif.parse span missing int arg %S" k
  in
  Alcotest.(check bool) "line count recorded" true (int_arg "lines" > 0);
  Alcotest.(check int) "byte count exact" (String.length text) (int_arg "bytes");
  Alcotest.(check bool) "gate count recorded" true (int_arg "gates" > 0)

let suite =
  [ Alcotest.test_case "span nesting and depth" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick test_span_closes_on_exception;
    Alcotest.test_case "add_args hits innermost span" `Quick
      test_add_args_lands_on_innermost;
    Alcotest.test_case "disabled tracing allocates nothing" `Quick
      test_disabled_tracing_allocates_nothing;
    Alcotest.test_case "span hook without buffer" `Quick
      test_span_hook_fires_without_buffer;
    Alcotest.test_case "Chrome JSON round-trip" `Quick test_chrome_json_round_trip;
    Alcotest.test_case "histogram boundary bucketing" `Quick
      test_histogram_boundary_bucketing;
    Alcotest.test_case "registry kind clash and monotonicity" `Quick
      test_registry_kind_clash_and_monotonicity;
    Alcotest.test_case "metrics JSON and reset" `Quick test_metrics_json_and_reset;
    Alcotest.test_case "profile bridges spans to metrics" `Quick
      test_profile_bridges_spans_to_metrics;
    Alcotest.test_case "flow emits expected spans" `Quick
      test_flow_emits_expected_spans;
    Alcotest.test_case "flow estimates each assignment once" `Quick
      test_flow_estimates_each_assignment_once;
    Alcotest.test_case "budgeted estimate tags ladder method" `Quick
      test_budgeted_estimate_tags_ladder_method;
    Alcotest.test_case "blif.parse span args" `Quick test_blif_parse_span ]
