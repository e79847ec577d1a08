(** Process-wide metrics registry: counters, gauges, histograms.

    One global registry maps dotted names ([bdd.unique.probes],
    [engine.cones.simulated], [span.flow.min_power.ms]) to metric cells.
    Registration is get-or-create and idempotent: calling {!counter} (or
    {!gauge}, {!histogram}) twice with the same name returns the same
    cell, so instrumented modules just name what they touch and never
    coordinate initialization order. Registering one name as two
    different kinds raises [Invalid_argument].

    The registry exports as JSON; see DESIGN.md §9 for the naming
    conventions. Cells are plain mutable records — updates are a handful
    of loads and stores under one uncontended mutex, cheap enough to leave
    on unconditionally. Domain-safe: registration, updates and snapshot
    export may run concurrently from service worker domains; exports see
    a consistent point-in-time snapshot. *)

type counter
(** Monotonically increasing integer (events, cache probes, moves). *)

type gauge
(** Float snapshot of a level (live BDD nodes, budget remaining). *)

type histogram
(** Distribution over fixed bucket upper bounds (durations, sizes). *)

(** {2 Registration} *)

val counter : ?help:string -> string -> counter

val gauge : ?help:string -> string -> gauge

val histogram : ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing finite upper bounds; an implicit
    overflow bucket catches everything above the last bound. A value [v]
    lands in the first bucket with [v <= bound] — boundary values belong
    to the bucket they bound. Defaults to {!default_buckets}. The bounds
    are fixed at first registration; later calls ignore [buckets]. *)

val default_buckets : float array
(** Latency-shaped bounds in milliseconds:
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
    500, 1000, 2500, 5000, 10000. *)

(** {2 Updates and reads} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Negative deltas raise [Invalid_argument] — counters only go up. *)

val counter_value : counter -> int

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keeps the running maximum (peak node counts, high-water marks). *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) array * int
(** Per-bucket (upper bound, count) pairs in bound order, plus the
    overflow count. Counts are per-bucket, not cumulative. *)

(** {2 Registry-wide operations} *)

val reset : unit -> unit
(** Zeroes every cell's value. Registrations (and bucket layouts) are
    kept, so cells held by instrumented modules stay valid — this is how
    the bench driver isolates one kernel's counters. *)

val names : unit -> string list
(** All registered names, sorted. *)

val to_json : unit -> string
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with
    histograms as [{"buckets": [{"le": b, "count": n}, ...],
    "overflow": n, "sum": s, "count": n}]. *)

val save_json : string -> unit
