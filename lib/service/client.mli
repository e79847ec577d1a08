(** Client side of the wire protocol: connect, submit, batch, retry.

    {!request} is the one-shot path ([dominoflow submit]): one line out,
    one line back. {!run_batch} is the streaming path ([dominoflow
    batch]): it pipelines every request over a single connection with a
    select-based duplex pump — reading responses while there are still
    requests to write, so neither side's socket buffer can deadlock the
    exchange.

    With a {!retry} policy, [run_batch] also survives the failures a
    hardened server is allowed to answer with: [overloaded] responses
    are backed off (capped exponential + jitter, stretched by the
    server's [retry_after_ms] hint) and resubmitted, and a connection
    dropping mid-batch triggers a reconnect that resubmits exactly the
    requests whose answers never arrived — correlated on the echoed
    [id], so every request needs a distinct positive [id] for the
    policy to engage.

    {!with_self_hosted} runs a {!Server} in a spawned domain on a fresh
    temporary socket for the duration of a callback — how [dominoflow
    batch] without [--socket], the throughput bench, the chaos soak and
    the test suite get a real server (full wire protocol, real domains)
    without managing a daemon. *)

type t

val connect : string -> t
(** Connects to a server socket; {!Dpa_util.Dpa_error.Io} on failure. *)

val close : t -> unit

val request : t -> string -> string
(** [request t line] sends one request line and blocks for one response
    line. Raises [Dpa_error.Io] if the server closes the connection
    first. *)

type retry = {
  max_attempts : int;  (** total attempts per request, [>= 1] *)
  base_delay_ms : int;  (** backoff after attempt [k] is
      [min max_delay_ms (base_delay_ms × 2{^k-1})], or the server's
      [retry_after_ms] hint when larger *)
  max_delay_ms : int;
  jitter : float;  (** ± this fraction of the delay, uniformly *)
  seed : int;  (** jitter stream seed — retries are reproducible *)
}

val default_retry : retry
(** 4 attempts, 50 ms base, 2 s cap, ±20% jitter, seed 0. *)

val run_batch : ?retry:retry -> socket:string -> string list -> string list
(** Sends every line over one connection, pipelined.

    Without [retry]: returns the response lines {e in arrival order}
    (correlate/reorder on the echoed [id]); raises [Dpa_error.Io] if the
    connection drops before every response has arrived — the historical
    behaviour.

    With [retry] (and every request carrying a distinct positive [id]):
    responses are correlated on [id]; [overloaded] answers and requests
    orphaned by a dropped connection are resubmitted over a fresh
    connection after a backoff, up to [max_attempts]; the result is {e
    in request order}, exactly one response per request. Raises
    [Dpa_error.Io] when attempts are exhausted with requests still
    unanswered. If ids are missing or duplicated the policy cannot
    correlate and the call degrades to the single-attempt behaviour.

    Client-side fault injection ({!Dpa_util.Fault.Torn_frame},
    {!Dpa_util.Fault.Drop_conn}) acts inside the pump when armed in this
    process — the chaos soak's way of producing torn writes and
    mid-batch hangups against a live server. *)

val with_self_hosted :
  workers:int ->
  ?jobs:int ->
  ?queue_capacity:int ->
  ?max_request_bytes:int ->
  ?cache_snapshot:string ->
  (socket:string -> 'a) ->
  'a
(** [with_self_hosted ~workers f] starts a server in its own domain on a
    fresh temp socket, waits until it is accepting, runs [f ~socket],
    then stops the server gracefully (draining in-flight work) and joins
    its domain — including when [f] raises. [jobs] (default 1) is the
    per-worker intra-request parallelism; [queue_capacity],
    [max_request_bytes] and [cache_snapshot] forward to {!Server.config}
    (the result cache runs at the server defaults; [cache_snapshot] makes
    the private server persist and reload its cache — how the
    warm-restart tests drive two server lifetimes over one snapshot
    file). *)
