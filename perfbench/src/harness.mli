(** Pure helpers of the repository benchmark: the percentile rule,
    self time from a span tree, open-loop lateness accounting, metric
    names and the result line. Nothing here touches the program under
    test, so every rule is unit-tested on its own. *)

(** {1 Percentiles} *)

val tail_samples : int
(** 10: a tail percentile is reported only when at least this many
    samples lie beyond it. *)

val rank : p:float -> int -> int
(** Nearest-rank index (1-based) of percentile [p] in [n] samples:
    the smallest rank whose share of samples at or below it is at least
    [p]%. Computed in integer hundredths of a percent, so [rank ~p:99.
    1000 = 990] exactly. *)

val beyond : p:float -> int -> int
(** Samples strictly above the [p]th percentile's rank: [n - rank]. *)

val supports : p:float -> int -> bool
(** [beyond ~p n >= tail_samples]: p99 needs at least 1000 samples. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of unsorted samples (infinities allowed,
    they sort last). Raises [Invalid_argument] on an empty array. *)

val median : float array -> float
(** Mean of the two middle samples for an even count. *)

val sliced : slices:int -> (float array -> float) -> float array -> float
(** [sliced ~slices f xs] splits time-ordered samples into [slices]
    contiguous parts of near-equal size and returns the median of [f]
    over the parts, so a slow stretch moves at most the parts it
    touches. [slices] is clamped to [1 .. length xs]. *)

val bucket_percentile : (float * int) array -> overflow:int -> float -> float
(** Percentile of a bucketed histogram (per-bucket upper bounds and
    counts, as {!Dpa_obs.Metrics.bucket_counts} gives them), by linear
    interpolation inside the bucket that holds the nearest rank. A rank in
    the overflow bucket reads as the last bound; an empty histogram as 0. *)

(** {1 Span trees} *)

type span = { name : string; start : int; dur : int; depth : int }
(** One closed span, times in ns; [depth] is the nesting depth within
    the domain that recorded it. *)

val parents : span array -> int array
(** Parent index of each span ([-1] for roots). A span at depth [d > 0]
    belongs to the latest-starting span at depth [d - 1] whose interval
    contains it. Spans from several domains may interleave: a worker
    domain's spans start again at depth 0 and so become roots. *)

val self_times : span array -> int array
(** Each span's duration minus the part of its interval covered by the
    union of its children. *)

(** {1 Open-loop lateness} *)

type request = {
  due : float;  (** scheduled send time, s *)
  sent : float;  (** actual send time, s *)
  answered : float option;  (** arrival of a good answer, s *)
}

val latencies_ms : request array -> float array
(** Latency of each request from its {e scheduled} send time; a request
    without a good answer is infinitely late. *)

val lags_ms : request array -> float array
(** How late the generator sent each request. *)

(** {1 Metrics and the result line} *)

val valid_name : string -> bool
(** Starts with a letter or digit; at most 64 characters from
    [A-Za-z0-9_.-]. *)

type metric = { name : string; value : float; unit_ : string }

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The benchmark's last output line. Raises [Invalid_argument] on an
    invalid or repeated name or a non-finite value. *)
