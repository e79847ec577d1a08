(** Statistically generated input vectors.

    The paper measures power "with statistically generated input vectors
    with the appropriate signal probabilities" — each primary input is an
    independent Bernoulli stream. *)

val generate :
  Dpa_util.Rng.t -> probs:float array -> cycles:int -> bool array array
(** [cycles] vectors of [Array.length probs] bits each. *)

(** {2 Bit-packed lanes}

    Helpers for the {!Compiled} simulator, which packs one simulation
    cycle per bit ("lane") of an OCaml [int] and evaluates up to
    {!lanes} cycles per pass. *)

val lanes : int
(** Usable bits per word: [63] (an OCaml [int] on a 64-bit platform). *)

val popcount : int -> int
(** Set bits among the 63 usable bits, sign bit included — counting a
    full lane word such as [lane_mask 63 = -1] yields [63]. *)

val lane_mask : int -> int
(** [lane_mask w] has lanes [0..w-1] set. [w] must be in [1..lanes];
    [lane_mask lanes] is [-1] (all 63 bits). *)

val lane_toggles : prev_last:int option -> int -> width:int -> int
(** [lane_toggles ~prev_last word ~width] counts value changes between
    consecutive cycles inside [word]'s low [width] lanes — adjacent-lane
    differences — plus, when [prev_last] is [Some b], the boundary
    change between the previous pass's final lane value [b] and lane 0.
    [None] marks the first pass, whose first cycle has no predecessor:
    summing over all passes yields exactly [cycles - 1] comparisons,
    matching the cycle-at-a-time simulator. *)

val empirical_probs : bool array array -> float array
(** Per-column fraction of ones; the sanity check that generated vectors
    realize the requested probabilities. *)
