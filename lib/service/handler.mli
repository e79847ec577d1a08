(** Executes one decoded request on the calling domain.

    Each handler mirrors the corresponding one-shot CLI code path —
    [estimate] is optimize → realize → map → {!Dpa_power.Engine.estimate}
    exactly as [dominoflow estimate], [compare] is
    {!Dpa_core.Flow.compare_ma_mp} exactly as [dominoflow run] — so a
    worker domain returns bit-identical numbers to the CLI. Workers each
    call this with their own arguments; every BDD manager involved is
    created inside the call, so concurrent executions share no mutable
    state beyond the (domain-safe) observability registry. *)

val load : Protocol.source -> Dpa_logic.Netlist.t
(** Resolves a request's circuit source exactly as the handlers do —
    [File] through {!Dpa_logic.Io.load_file}, [Inline] through
    {!Dpa_logic.Io.parse_netlist}. Exposed so {!Rescache} keys a request
    by the {e loaded} structure (a file edited on disk naturally changes
    the key) with the same failure behaviour as execution. Raises
    {!Dpa_util.Dpa_error.Error} on a missing file or a parse error. *)

val execute :
  ?par:Dpa_util.Par.t -> ?cancel:Dpa_util.Cancel.t -> Protocol.request -> Dpa_util.Jsonlite.t
(** The [result] payload of a success response. Failures raise
    {!Dpa_util.Dpa_error.Error} (or exceptions its [of_exn] recognizes);
    the worker pool maps them to structured error responses.

    [cancel] is the per-request cooperative-cancellation token: it is
    threaded through every estimate, search and simulation the request
    runs, and a fired token aborts the request with
    [Dpa_error.Error (Cancelled _)] — which the pool encodes as a
    [deadline_exceeded] / [cancelled] error response. [Stats] raises
    [Unsupported] here: the pool answers it from its own health record.

    [par] is the calling worker's private domain pool for intra-request
    parallelism (budgeted shard builds, in the final pricing and in every
    budgeted phase-search candidate). It must belong to the calling domain exclusively — pools
    are one submitter at a time, and each service worker owns its own so
    inter-request and intra-request parallelism compose without sharing.
    Responses are byte-identical with no pool and at every pool width,
    [bdd_nodes] included. *)
