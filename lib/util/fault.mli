(** Deterministic fault injection for chaos testing.

    A process-wide registry of injection points, each armed with a firing
    probability and an optional parameter (a duration for the slow
    points). Production code asks {!fire} at the instrumented sites —
    engine cone builds, the service worker loop, the server write path —
    and the call is a single atomic load when injection is disabled, so
    the instrumentation is free in normal operation.

    Configuration is explicit ({!configure}, or {!parse_config} on the
    [--fault] flag's ["point:rate[:param],..."]). Decisions come from a
    seeded {!Dpa_util.Rng} stream, so a soak run is reproducible. *)

type point =
  | Slow_cone  (** stall an engine cone build (param: seconds, default 0.25) *)
  | Worker_panic  (** kill a service worker domain mid-request *)
  | Torn_frame  (** client splits a request line across delayed writes *)
  | Drop_conn  (** client drops its connection mid-batch *)
  | Write_stall  (** server stops flushing a connection (param: seconds, default 0.2) *)

exception Injected_panic
(** Raised by the service worker loop when {!fire}[ Worker_panic] says
    so. Deliberately outside the {!Dpa_error} taxonomy: it must escape
    the per-request error handling and kill the domain, the way a real
    crash would. *)

val all_points : point list

val point_to_string : point -> string

val point_of_string : string -> point option

val configure : ?seed:int -> (point * float * float option) list -> unit
(** [(point, rate, param)] triples; rate in [\[0,1\]], [param] overrides
    the point's default parameter. Replaces the whole configuration.
    An empty list disables injection. *)

val parse_config : string -> ((point * float * float option) list, string) result
(** Parses ["slow_cone:0.1,worker_panic:0.02:0,write_stall:0.05:0.5"];
    the optional third field is the parameter. *)

val clear : unit -> unit

val active : unit -> bool
(** True iff any point has a non-zero rate. One atomic load. *)

val fire : point -> bool
(** Rolls the dice for one arrival at this point. Always [false] when
    not {!active}. Thread-safe. *)

val param : point -> float
(** The armed parameter (or the point's default when not set). *)

val sleep : ?cancel:Cancel.t -> point -> unit
(** Sleeps for [param point] seconds in short slices, polling [cancel]
    between slices — an injected stall stays cooperatively cancellable,
    which is exactly what the watchdog-rescue path needs to exercise. *)

val injection_counts : unit -> (point * int) list
(** How often each point has fired since the last {!configure}/{!clear}. *)
