(** Exhaustive phase search — optimal minimum-power assignment over all
    [2^n] phase combinations, feasible for circuits with few primary
    outputs. The paper's [frg1] has 3 outputs ("only 2³ or 8 possible
    phase assignments") yet still saves 34% power; this is the searcher
    that regime uses. *)

type result = {
  assignment : Dpa_synth.Phase.assignment;
  power : float;
  size : int;
  evaluated : int;
}

val run : Measure.t -> num_outputs:int -> result
(** Minimum power; ties broken by smaller size, then enumeration order.
    The enumeration is priced ahead across the measure's pool
    ({!Measure.prefetch}), a no-op without one. Raises
    [Invalid_argument] beyond 24 outputs. *)
