(** Event-driven simulation of a static CMOS implementation, glitches
    included.

    Domino logic never glitches (Property 2.2), so its zero-delay activity
    is exact. Static CMOS does glitch: when inputs settle in an arbitrary
    order, a gate can toggle several times before reaching its final
    value. This simulator propagates input changes one at a time in a
    random order — a unit-delay-free but order-accurate hazard model — and
    counts {e every} transition, quantifying how much the textbook
    [2p(1-p)] zero-delay figure underestimates real static activity. The
    domino/static comparisons in the bench use it to keep the paper's
    "up to 4×" motivation honest. *)

type measurement = {
  zero_delay : float;  (** Σ over gates of final-value toggles per cycle *)
  with_glitches : float;  (** Σ over gates of all transitions per cycle *)
  glitch_ratio : float;  (** [with_glitches / zero_delay]; 1.0 when clean *)
  cycles : int;
}

val measure :
  ?cycles:int ->
  Dpa_util.Rng.t ->
  input_probs:float array ->
  Dpa_logic.Netlist.t ->
  measurement
(** Default {!Compiled.default_cycles} cycles. Inputs are independent
    Bernoulli streams; each cycle the changed inputs are applied in a
    fresh random order. The network may contain any gate type.

    The hazard model interleaves Bernoulli draws with per-cycle
    shuffles, which rules out the lane-packed tape, so this is a
    cycle-at-a-time event walk. After each cycle it recomputes the
    zero-delay values and asserts that the event propagation settled to
    the same fixpoint. *)
