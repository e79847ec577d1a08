module Jsonlite = Dpa_util.Jsonlite
module Dpa_error = Dpa_util.Dpa_error
module Cancel = Dpa_util.Cancel
module Fault = Dpa_util.Fault
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics
module Clock = Dpa_obs.Clock

type job = {
  line : string;
  enqueued_ns : int;
  reply : string -> unit;
}

(* One request currently executing on a worker. [replied] is the
   exactly-once latch: the worker's normal reply, the worker's dying
   reply and the watchdog's abandonment reply all funnel through
   [reply_once], and whoever flips the latch first wins. *)
type inflight = {
  job : job;
  started_ns : int;
  cancel : Cancel.t;
  replied : bool Atomic.t;
}

(* One staffed position in the pool. The [domain] occupying a slot can
   change over time (crashes, abandonment); [generation] is bumped at
   each change so a retired domain notices it has been replaced and
   exits instead of competing with its successor for jobs. [inflight]
   holds the *same* option cell the worker installed, so clearing is a
   compare-and-set that cannot clobber a successor's registration. *)
type slot = {
  index : int;
  generation : int Atomic.t;
  heartbeat_ns : int Atomic.t;  (* last time this worker popped/replied *)
  crashed : bool Atomic.t;  (* set only by a worker's abnormal exit *)
  inflight : inflight option Atomic.t;
  mutable domain : unit Domain.t option;  (* touched by the owner domain only *)
}

type t = {
  slots : slot array;
  queue : job Jobqueue.t;
  jobs : int;
  cache : Rescache.t option;  (* shared result cache, [None] = disabled *)
  on_shutdown : unit -> unit;
  stopping : bool Atomic.t;
  panics : int Atomic.t;
  replacements : int Atomic.t;
  rescues : int Atomic.t;
  abandoned_requests : int Atomic.t;
  ewma_ms : float Atomic.t;  (* per-request latency EWMA, for retry hints *)
  mutable abandoned : unit Domain.t list;
      (* hung domains whose slots were restaffed; never joined (they are
         hung by definition) — reclaimed at process exit *)
}

(* service-layer observability cells (eager registration: domain-safe) *)
let c_requests = Metrics.counter ~help:"requests executed by the pool" "service.requests"

let c_errors =
  Metrics.counter ~help:"requests answered with a structured error" "service.errors"

let c_busy_us =
  Metrics.counter ~help:"microseconds workers spent executing requests"
    "service.worker.busy_us"

let c_panics =
  Metrics.counter ~help:"worker domains that died abnormally" "service.worker.panics"

let c_replaced =
  Metrics.counter ~help:"worker domains replaced by the watchdog"
    "service.worker.replaced"

let c_rescued =
  Metrics.counter ~help:"overrunning requests cancelled by the watchdog"
    "service.worker.rescued"

let g_depth =
  Metrics.gauge ~help:"jobs waiting in the queue, sampled at each pop"
    "service.queue.depth"

let h_latency =
  Metrics.histogram ~help:"request execution latency (decode to reply)"
    "service.request.ms"

let h_wait =
  Metrics.histogram ~help:"time a request waited in the queue" "service.queue.wait_ms"

let reply_once infl response =
  if not (Atomic.exchange infl.replied true) then infl.job.reply response

let num n = Jsonlite.Num (float_of_int n)

let fnum f = Jsonlite.Num f

let process_line ?par ?(cancel = Cancel.none) ?stats ?cache line =
  match Protocol.parse_request line with
  | Error e ->
    Metrics.incr c_errors;
    (Protocol.error_response ~id:(Protocol.salvage_id line) e, false)
  | Ok { Protocol.id; request; cache = mode } -> (
    let cmd = Protocol.cmd_name request in
    let is_shutdown = request = Protocol.Shutdown in
    match (request, stats) with
    | Protocol.Stats, Some snapshot -> (Protocol.ok_response ~id ~cmd (snapshot ()), false)
    | _ -> (
      let ckey =
        match (cache, mode) with
        | Some c, `Use -> Option.map (fun k -> (c, k)) (Rescache.key request)
        | Some _, `Bypass | None, _ -> None
      in
      match Option.bind ckey (fun (c, k) -> Rescache.find c k) with
      | Some result -> (Protocol.ok_response_text ~id ~cmd result, false)
      | None -> (
        match
          Trace.with_span "service.request"
            ~args:[ ("cmd", Trace.Str cmd); ("id", Trace.Int id) ]
            (fun () -> Handler.execute ?par ~cancel request)
        with
        | result ->
          (* encode once; the same bytes are stored and sent, so a later
             hit is byte-identical to this cold response by construction *)
          let encoded = Jsonlite.encode result in
          (match ckey with
          | Some (c, k) -> Rescache.store c ~key:k ~cmd ~result:encoded
          | None -> ());
          (Protocol.ok_response_text ~id ~cmd encoded, is_shutdown)
        | exception e ->
          Metrics.incr c_errors;
          let err =
            match Dpa_error.of_exn e with
            | Some err -> err
            | None -> Dpa_error.Internal (Printexc.to_string e)
          in
          (Protocol.error_response ~id err, is_shutdown))))

(* ------------------------------------------------------------------ *)
(* Health snapshot                                                      *)
(* ------------------------------------------------------------------ *)

let stats_json t =
  let now = Clock.now_ns () in
  let busy = ref 0 in
  let oldest_inflight_ms = ref 0.0 in
  let oldest_heartbeat_ms = ref 0.0 in
  Array.iter
    (fun slot ->
      let hb = Atomic.get slot.heartbeat_ns in
      if hb > 0 then
        oldest_heartbeat_ms :=
          Float.max !oldest_heartbeat_ms (float_of_int (now - hb) /. 1e6);
      match Atomic.get slot.inflight with
      | Some infl ->
        incr busy;
        oldest_inflight_ms :=
          Float.max !oldest_inflight_ms (float_of_int (now - infl.started_ns) /. 1e6)
      | None -> ())
    t.slots;
  let injections =
    Fault.injection_counts ()
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (p, n) -> (Fault.point_to_string p, num n))
  in
  (* computed from the crashed atomics only: [stats_json] runs on worker
     domains, which must not read the watchdog-owned [domain] fields *)
  let strength =
    Array.fold_left
      (fun acc slot -> if Atomic.get slot.crashed then acc else acc + 1)
      0 t.slots
  in
  Jsonlite.Obj
    ([
      ("workers", num (Array.length t.slots));
      ("strength", num strength);
      ("busy", num !busy);
      ("queue_depth", num (Jobqueue.length t.queue));
      ("panics", num (Atomic.get t.panics));
      ("replacements", num (Atomic.get t.replacements));
      ("rescues", num (Atomic.get t.rescues));
      ("abandoned_requests", num (Atomic.get t.abandoned_requests));
      ("latency_ewma_ms", fnum (Atomic.get t.ewma_ms));
      ("oldest_inflight_ms", fnum !oldest_inflight_ms);
      ("oldest_heartbeat_ms", fnum !oldest_heartbeat_ms);
      ("injections", Jsonlite.Obj injections);
    ]
    @
    match t.cache with
    | Some c -> [ ("cache", Rescache.stats_json c) ]
    | None -> [])

let suggest_retry_ms t =
  (* queue depth × per-request EWMA, spread across the workers: roughly
     when the backlog in front of a retry will have drained. Clamped so
     clients neither hammer (>= 25ms) nor stall (<= 5s). *)
  let depth = Jobqueue.length t.queue in
  let per_req = Float.max 10.0 (Atomic.get t.ewma_ms) in
  let workers = float_of_int (Array.length t.slots) in
  let est = per_req *. float_of_int (depth + 1) /. workers in
  int_of_float (Float.min 5000.0 (Float.max 25.0 est))

let update_ewma t ms =
  (* racy read-modify-write is fine: this is a smoothed hint, not an
     accounting value *)
  let prev = Atomic.get t.ewma_ms in
  Atomic.set t.ewma_ms (if prev <= 0.0 then ms else (0.8 *. prev) +. (0.2 *. ms))

(* ------------------------------------------------------------------ *)
(* Worker loop                                                          *)
(* ------------------------------------------------------------------ *)

(* Watchdog thresholds on one request's wall clock: past the soft limit
   its token fires, past the hard limit its worker is abandoned. *)
let soft_limit_s = 30.0

let hard_limit_s = 120.0

let deadline_grace = 2.0

(* The cancellation token a request runs under. A request that carries
   [deadline_s] gets a token firing at [deadline_grace ×] that: the
   engine's own budget deadline fires first and degrades gracefully
   through the ladder, and the token is the hard backstop when the
   ladder itself is stuck (an injected stall, a pathological cone). *)
let token_for line =
  match Protocol.parse_request line with
  | Ok { Protocol.request; _ } -> (
    match Protocol.request_deadline_s request with
    | Some d when d > 0.0 -> Cancel.create ~deadline_in:(deadline_grace *. d) ()
    | Some _ | None -> Cancel.create ())
  | Error _ -> Cancel.create ()

let worker_body t slot ~generation par =
  let rec loop () =
    if Atomic.get slot.generation <> generation then
      (* the watchdog restaffed this slot while we were stuck: our
         successor owns it now — bow out without touching the queue *)
      ()
    else
      match Jobqueue.pop t.queue with
      | None -> ()
      | Some job ->
        Atomic.set slot.heartbeat_ns (Clock.now_ns ());
        Metrics.set g_depth (float_of_int (Jobqueue.length t.queue));
        let t0 = Clock.now_ns () in
        Metrics.observe h_wait (float_of_int (t0 - job.enqueued_ns) /. 1e6);
        let infl =
          { job; started_ns = t0; cancel = token_for job.line; replied = Atomic.make false }
        in
        let cell = Some infl in
        Atomic.set slot.inflight cell;
        (try
           if Fault.fire Fault.Worker_panic then raise Fault.Injected_panic;
           let response, is_shutdown =
             process_line ~par ~cancel:infl.cancel
               ~stats:(fun () -> stats_json t)
               ?cache:t.cache job.line
           in
           Metrics.incr c_requests;
           (* reply before shutdown so the requester always sees its answer *)
           reply_once infl response;
           ignore (Atomic.compare_and_set slot.inflight cell None);
           let dur_ns = Clock.now_ns () - t0 in
           Metrics.observe h_latency (float_of_int dur_ns /. 1e6);
           Metrics.add c_busy_us (max 0 (dur_ns / 1000));
           update_ewma t (float_of_int dur_ns /. 1e6);
           Atomic.set slot.heartbeat_ns (Clock.now_ns ());
           if is_shutdown then t.on_shutdown ()
         with e ->
           (* the domain is dying with a request on its hands: answer the
              client with a typed error first, then let the exception
              escape and kill the domain the way a real crash would *)
           Metrics.incr c_errors;
           let msg =
             Printf.sprintf "worker %d died executing request: %s" slot.index
               (Printexc.to_string e)
           in
           reply_once infl
             (Protocol.error_response ~id:(Protocol.salvage_id job.line) (Dpa_error.Internal msg));
           ignore (Atomic.compare_and_set slot.inflight cell None);
           raise e);
        loop ()
  in
  loop ()

let worker t slot ~generation =
  (* the intra-request pool lives and dies with the worker domain: its
     sub-domains are resident across requests (no spawn per request) and
     it has exactly one submitter — this worker — by construction (at
     jobs = 1 it spawns nothing and runs inline). [Par.with_pool] shuts
     the sub-domains down even when the body raises, so a panicking
     worker leaks nothing. *)
  try
    Dpa_util.Par.with_pool ~jobs:t.jobs (worker_body t slot ~generation)
  with _ ->
    (* abnormal exit: flag the slot for the watchdog. The in-flight
       request (if any) was already answered on the way out. *)
    Atomic.incr t.panics;
    Metrics.incr c_panics;
    Atomic.set slot.crashed true

let spawn_slot t slot =
  let generation = Atomic.get slot.generation in
  slot.domain <- Some (Domain.spawn (fun () -> worker t slot ~generation))

(* ------------------------------------------------------------------ *)
(* Watchdog                                                             *)
(* ------------------------------------------------------------------ *)

let watch t =
  if not (Atomic.get t.stopping) then begin
    let now = Clock.now_ns () in
    Array.iter
      (fun slot ->
        if Atomic.get slot.crashed then begin
          (* crashed domain: it answered its request on the way down and
             has already returned — join the corpse, restaff the slot *)
          (match slot.domain with
          | Some d -> ( try Domain.join d with _ -> ())
          | None -> ());
          slot.domain <- None;
          Atomic.set slot.crashed false;
          Atomic.incr slot.generation;
          Atomic.set slot.inflight None;
          Atomic.incr t.replacements;
          Metrics.incr c_replaced;
          spawn_slot t slot
        end
        else
          match Atomic.get slot.inflight with
          | None -> ()
          | Some infl as cell ->
            let elapsed_s = float_of_int (now - infl.started_ns) /. 1e9 in
            if elapsed_s > hard_limit_s then begin
              (* the worker ignored cancellation past the hard limit:
                 answer its client now, retire the hung domain (never
                 joined — it is hung) and restaff the slot *)
              let msg =
                Printf.sprintf
                  "request abandoned by watchdog after %.1fs (worker %d unresponsive)"
                  elapsed_s slot.index
              in
              reply_once infl
                (Protocol.error_response ~id:(Protocol.salvage_id infl.job.line)
                   (Dpa_error.Internal msg));
              Metrics.incr c_errors;
              ignore (Atomic.compare_and_set slot.inflight cell None);
              Atomic.incr slot.generation;
              (match slot.domain with
              | Some d -> t.abandoned <- d :: t.abandoned
              | None -> ());
              slot.domain <- None;
              Atomic.incr t.abandoned_requests;
              Atomic.incr t.replacements;
              Metrics.incr c_replaced;
              spawn_slot t slot
            end
            else if elapsed_s > soft_limit_s && not (Cancel.flag_set infl.cancel) then begin
              (* soft rescue: fire the request's own token and let the
                 kernel polling unwind it cooperatively *)
              Cancel.cancel
                ~reason:
                  (Printf.sprintf "watchdog: request exceeded %.3gs soft limit"
                     soft_limit_s)
                infl.cancel;
              Atomic.incr t.rescues;
              Metrics.incr c_rescued
            end)
      t.slots
  end

let worker_strength t =
  Array.fold_left
    (fun acc slot ->
      if slot.domain <> None && not (Atomic.get slot.crashed) then acc + 1 else acc)
    0 t.slots

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let create ?(jobs = 1) ?cache ~workers ~on_shutdown queue =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      slots =
        Array.init workers (fun index ->
            {
              index;
              generation = Atomic.make 0;
              heartbeat_ns = Atomic.make 0;
              crashed = Atomic.make false;
              inflight = Atomic.make None;
              domain = None;
            });
      queue;
      jobs;
      cache;
      on_shutdown;
      stopping = Atomic.make false;
      panics = Atomic.make 0;
      replacements = Atomic.make 0;
      rescues = Atomic.make 0;
      abandoned_requests = Atomic.make 0;
      ewma_ms = Atomic.make 0.0;
      abandoned = [];
    }
  in
  Array.iter (spawn_slot t) t.slots;
  t

let join t =
  Atomic.set t.stopping true;
  Array.iter
    (fun slot ->
      match slot.domain with
      | Some d ->
        (try Domain.join d with _ -> ());
        slot.domain <- None
      | None -> ())
    t.slots
(* abandoned domains are hung by definition: joining them would block
   shutdown forever, so they are reclaimed by process exit instead *)
