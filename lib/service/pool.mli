(** Worker pool: OCaml 5 domains draining the job queue, under a
    watchdog.

    Each worker pops raw request lines, decodes them ({!Protocol}),
    executes them ({!Handler}) and hands the response line to the job's
    [reply] callback. Every failure — malformed JSON, a missing file, a
    blown budget with fallback disabled, even an unrecognized exception —
    becomes a structured error response. BDD managers live and die inside
    {!Handler.execute}, so each domain effectively owns a private manager
    per request and results are bit-identical to the one-shot CLI.

    {b Fault tolerance.} Every admitted request is answered exactly once,
    whatever happens to the worker executing it:

    - Each request runs under a per-request {!Dpa_util.Cancel} token.
      Requests carrying [deadline_s] get a token firing at twice that
      value — the engine's budget deadline fires first and degrades
      through the ladder; the token is the hard backstop when the ladder
      itself is stuck.
    - A worker that dies mid-request (a crash, or an injected
      {!Dpa_util.Fault.Injected_panic}) answers its in-flight request
      with a typed [internal] error on the way down and flags its slot;
      the next {!watch} tick joins the corpse and staffs a replacement
      without dropping queued jobs.
    - {!watch} also rescues overrunning requests: past a 30 s soft
      limit it fires the request's token (cooperative unwind through the
      kernel polling); past a 120 s hard limit it answers the client,
      retires the hung domain and restaffs the slot. Slot generations
      make a retired domain stand down instead of competing with its
      successor.
    - All replies go through an exactly-once latch, so a worker's normal
      reply, its dying reply and a watchdog abandonment reply can race
      without the client ever seeing two responses for one id.

    Observability (all through the domain-safe {!Dpa_obs} registry):
    [service.requests] / [service.errors] counters, [service.request.ms]
    and [service.queue.wait_ms] histograms, [service.queue.depth] gauge,
    [service.worker.busy_us], plus watchdog counters
    [service.worker.panics] / [service.worker.replaced] /
    [service.worker.rescued] and a [service.request] trace span per
    request. *)

type job = {
  line : string;  (** one raw request line, newline stripped *)
  enqueued_ns : int;  (** {!Dpa_obs.Clock.now_ns} at enqueue *)
  reply : string -> unit;
      (** called exactly once with the response line (no newline); must
          be safe to call from any worker domain *)
}

type t

val process_line :
  ?par:Dpa_util.Par.t ->
  ?cancel:Dpa_util.Cancel.t ->
  ?stats:(unit -> Dpa_util.Jsonlite.t) ->
  ?cache:Rescache.t ->
  string ->
  string * bool
(** [process_line line] is the full decode → execute → encode pipeline
    of one worker iteration: the response line, and whether the request
    was a well-formed [shutdown]. Exposed so tests (and the pool itself)
    exercise exactly the wire semantics without a socket. [par] is
    forwarded to {!Handler.execute}; it never changes a response byte.
    [cancel] aborts the execution with a [deadline_exceeded] /
    [cancelled] error response when it fires. [stats] answers the
    [stats] command from the pool's health record; without it the
    request falls through to {!Handler.execute} (which rejects it).

    [cache] is the shared {!Rescache}: a cacheable request (see the
    cache's interface) sent with [cache: "use"] is answered from it on a
    hit — byte-identical to cold execution — and populates it after a
    successful cold execution. [None] (the default), or [cache:
    "bypass"] in the request, runs the historical cold path untouched.
    Error responses are never cached. *)

val create :
  ?jobs:int ->
  ?cache:Rescache.t ->
  workers:int ->
  on_shutdown:(unit -> unit) ->
  job Jobqueue.t ->
  t
(** Spawns [workers] domains ([>= 1] or [Invalid_argument]). A worker
    that executes a well-formed [shutdown] request calls [on_shutdown]
    (once per such request) {e after} replying.

    [jobs] (default 1) is the intra-request parallelism width: each
    worker owns a private {!Dpa_util.Par} pool of that many jobs,
    created inside the worker domain and shut down when it exits (even
    on a panic), so the process runs at most [workers × jobs] busy
    domains — pick [jobs ≈ cores / workers] to avoid oversubscription.
    [jobs = 1] spawns no extra domain. Responses are byte-identical at
    every width.

    [cache] (default none) is the result cache shared by every worker;
    it is forwarded to {!process_line} on each request and reported
    under the [cache] key of {!stats_json}. *)

val watch : t -> unit
(** One watchdog tick: replace crashed workers, cancel requests past the
    soft limit, abandon workers past the hard limit. Must be called from
    a single owner domain (the server's select loop); cheap enough for
    every loop iteration. Does nothing once {!join} has begun. *)

val stats_json : t -> Dpa_util.Jsonlite.t
(** The [stats] command's payload: [workers] (configured), [strength]
    (slots not currently crashed), busy count, queue depth, watchdog
    counters ([panics], [replacements], [rescues],
    [abandoned_requests]), latency EWMA, oldest in-flight age,
    non-zero fault-injection counts, and — when a result cache is
    attached — its {!Rescache.stats_json} health under [cache]. *)

val suggest_retry_ms : t -> int
(** Backoff hint for [overloaded] responses: queue depth × latency EWMA
    across the workers, clamped to [25, 5000] ms. *)

val worker_strength : t -> int
(** Slots currently staffed with a live (non-crashed) domain — the
    chaos soak's "pool back at full strength" assertion. *)

val join : t -> unit
(** Waits for every staffed worker to exit — they do when the queue is
    closed and drained. Stops the watchdog first; abandoned (hung)
    domains are not waited for. *)
