(** Chaos soak: a self-hosted server under injected faults, with
    exactly-once accounting.

    {!soak} arms the {!Dpa_util.Fault} registry (server- and client-side
    points: stalled cone builds, worker panics, torn frames, dropped
    connections, stalled flushes), runs a batch of estimate/ping
    requests — some carrying tight [deadline_s] budgets — through the
    retrying client against a real server, fires a stream of garbage
    probes, and then interrogates the server's [stats] endpoint.

    The soak's invariants, checked here rather than by the caller:
    every request id is answered exactly once and every garbage probe
    gets a structured error ({!Dpa_util.Dpa_error} [Internal] is raised
    otherwise — the retrying client already raises when attempts run out
    with ids unanswered), and the pool is back at full worker strength at
    the end (reported, so the caller can assert [strength = workers]).
    Responses may legitimately be errors — [deadline_exceeded] from the
    cancellation backstop, [internal] from a panicked worker — the
    hardening guarantee is {e answered}, not {e succeeded}.

    Fault decisions and request payloads derive from [seed], so a soak
    run is reproducible. The registry is cleared on the way out, even on
    failure. *)

type report = {
  requests : int;
  ok : int;
  errors : (string * int) list;  (** error-kind → count over final answers *)
  garbage_probes : int;  (** garbage lines that got a structured error: all of them *)
  elapsed_s : float;
  workers : int;
  strength : int;  (** staffed workers at the end; [= workers] on a pass *)
  panics : int;
  replacements : int;
  rescues : int;
  injections : (string * int) list;  (** fault point → times fired *)
}

val report_json : report -> Dpa_util.Jsonlite.t
(** The report as the JSON object [dominoflow chaos --json] prints. *)

val probe_garbage : socket:string -> string list -> int
(** [probe_garbage ~socket probes] sends each line on one connection to
    the server at [socket] and returns how many replies were structured
    errors: responses that parse with [ok = false]. Raises
    {!Dpa_util.Dpa_error} [Internal] when any reply is not one (an
    unparseable line or a success). {!soak} runs it on its garbage
    probes. *)

val soak :
  ?seed:int ->
  ?workers:int ->
  ?jobs:int ->
  ?queue_capacity:int ->
  ?requests:int ->
  ?deadline_every:int ->
  ?garbage:int ->
  ?faults:(Dpa_util.Fault.point * float * float option) list ->
  unit ->
  report
(** Defaults: seed 1, 4 workers, jobs 1, queue capacity 8 (small on
    purpose — overload shedding must trigger), 120 requests with a tight
    deadline on every 5th, 9 garbage probes, and moderate rates on all
    five fault points. [deadline_every = 0] disables deadline budgets;
    [faults = []] is a fault-free control run. *)
