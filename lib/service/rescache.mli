(** Structural-hash result cache for the service, with warm restarts.

    Production phase-assignment traffic is repetitive: the same cones
    come back with the same phase vectors and budgets, yet every request
    used to rebuild its BDDs from scratch. This cache keys the encoded
    [result] payload of a successful [estimate] / [optimize] / [compare]
    response by everything that can change a response byte, and nothing
    else:

    - the {!Dpa_logic.Struct_hash} canonical digest of the loaded
      netlist (insertion-order independent, alpha-invariant over input
      and gate naming, dead-logic invariant — so textual re-orderings
      and renamings of the same circuit share one entry);
    - the netlist {e name}, for [compare] only (its response echoes the
      name as [circuit]; [estimate]/[optimize] responses do not);
    - the request parameters: command, [input_prob] (exact float bits),
      [phases], and the budget's [max_bdd_nodes] / [fallback].

    The [seed] of an [optimize] / [compare] request is {e not} part of
    the key: the flow's phase search never reads it, so two requests
    that differ only in seed get the same bytes.

    The worker's intra-request pool width is {e not} part of the key:
    the engine answers byte-identically with no pool and at every
    [--jobs] width, so a snapshot written at one width answers for any
    other.

    {b What is never cached.} [ping]/[info]/[stats]/[shutdown]; any
    request carrying [deadline_s] (the degradation ladder makes its
    result wall-clock dependent); error responses; and requests sent
    with [cache: "bypass"]. A source that fails to load yields no key —
    the cold path reports the error as before.

    {b Byte identity.} The cache stores the already-encoded [result]
    substring of the cold response and splices it into fresh envelopes
    with {!Protocol.ok_response_text}, so a hit is byte-identical to the
    cold response by construction — there is no decode/re-encode round
    trip to disagree over float formatting.

    {b Concurrency.} One cache is shared by every worker domain: one
    LRU (a hash table and an intrusive recency list) under one mutex. A
    probe holds the mutex for one lookup and one relink, and a store for
    its insertion and evictions. The bounds are exact: the cache never
    holds more than [max_entries] entries or [max_bytes] bytes.

    {b Observability.} [service.cache.hits] / [.misses] / [.evictions] /
    [.stores] / [.snapshot_rejected] counters and [service.cache.bytes]
    / [.entries] gauges in {!Dpa_obs.Metrics}; a [service.cache.lookup]
    trace span (with a [hit] attribute) around every probe; and
    {!stats_json} for the wire-level [stats] extension.

    {b Persistence.} {!save} writes a versioned newline-delimited JSON
    snapshot (written on graceful drain); {!load} rebuilds a cache from
    one at startup so a restarted daemon answers warm. A corrupt,
    truncated or version-skewed snapshot is {e rejected as a whole} —
    the daemon starts cold with a structured warning, never crashes, and
    never loads a partial file. *)

type t

val create : max_bytes:int -> max_entries:int -> unit -> t
(** [create ~max_bytes ~max_entries ()] — byte and entry bounds.
    [max_bytes] counts keys, payloads and a fixed per-entry overhead; an
    entry larger than [max_bytes] is simply not stored. Raises
    [Invalid_argument] if either bound is [< 1]. *)

val key : Protocol.request -> string option
(** The cache key of a request, or [None] when the request must not be
    cached (wrong command, carries a deadline, or its source fails to
    load — see the module preamble). Loads and canonicalizes the
    netlist, which costs a parse — small against the BDD work a hit
    saves. *)

val find : t -> string -> string option
(** The stored encoded [result] payload, refreshing the entry's
    recency. Counts a hit or miss. *)

val store : t -> key:string -> cmd:string -> result:string -> unit
(** Inserts (or refreshes) an entry, evicting least recently used
    entries until both bounds hold again. [result] must be the
    [Jsonlite]-encoded payload of a {e successful} response; [cmd] is
    kept for snapshot integrity checks. *)

val hits : t -> int

val misses : t -> int

val stats_json : t -> Dpa_util.Jsonlite.t
(** The [cache] sub-object of the service [stats] response: [hits],
    [misses], [hit_ratio] (0 when unprobed), [stores], [evictions],
    [entries], [bytes], [max_bytes], [max_entries]. *)

(** {2 Snapshots}

    Format: a header line
    [{"magic":"dpa-rescache","version":1,"entries":N}] followed by one
    [{"key":h,"cmd":c,"result":{...}}] line per entry, least recently
    used first (so replaying the file restores recency order). The load
    validates the whole file — magic, version, entry count, key shape —
    before a single entry becomes visible. *)

val snapshot_version : int

val save : t -> string -> (unit, string) result
(** Writes atomically (temp file + rename). [Error] carries the I/O
    failure reason; the cache is unchanged either way. *)

val load : t -> string -> [ `Loaded of int | `Missing | `Rejected of string ]
(** Populates an (empty or live) cache from a snapshot, entry bounds
    enforced as usual. [`Missing]: no file at the path — a first boot,
    not an error. [`Rejected reason]: the file exists but failed
    validation; nothing was loaded, and the
    [service.cache.snapshot_rejected] counter was bumped. Never
    raises. *)
