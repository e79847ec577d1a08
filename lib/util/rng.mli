(** Deterministic pseudo-random number generator.

    A splitmix64 generator: fast, high quality for simulation purposes, and
    fully reproducible from a seed — every experiment in this repository is
    seeded so that tables and figures regenerate identically. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Generators with equal seeds
    produce equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that continues [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val split : t -> t
(** [split t] derives a statistically independent generator, advancing
    [t]. Useful for giving each sub-experiment its own stream. *)

val bernoulli_threshold : float -> int
(** [bernoulli_threshold p] is the integer [T] such that
    [bernoulli t p] decides exactly as [b < T], where [b] is the 53-bit
    uniform integer the draw consumes. The equivalence is exact, not
    approximate: [float t 1.0] is [b / 2^53] with both steps exact, so
    [b/2^53 < p  ≡  b < ceil (p·2^53) = T]. Used by
    {!fill_bernoulli_lanes} to replace a float division per draw with an
    integer compare without perturbing the stream. *)

val fill_bernoulli_lanes : t -> thresholds:int array -> lanes:int -> into:int array -> unit
(** [fill_bernoulli_lanes t ~thresholds ~lanes ~into] draws
    [lanes × Array.length thresholds] Bernoulli bits and packs them into
    [into]: bit [c] of [into.(k)] is draw [k] of lane [c]. Draw order is
    lane-major, threshold-minor — for each lane [c], one draw per
    threshold [k] in ascending [k] — which is exactly the order
    [Array.map (bernoulli t) probs] consumes per cycle, so a packed
    64-bit-word simulator sees the {e same} stream as a cycle-at-a-time
    one and advances [t] by the same number of draws. [lanes] must be in
    [1..63] (an OCaml [int] has 63 usable bits). [into] is overwritten,
    not accumulated into. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Requires a non-empty array. *)
