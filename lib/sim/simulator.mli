(** Cycle-accurate gate-level simulation of mapped domino blocks — the
    repository's stand-in for the EPIC PowerMill measurement step.

    Each clock cycle has a precharge phase (every dynamic output returns
    high / buffered output low) and an evaluate phase. A dynamic cell
    dissipates when its logical output is 1 that cycle (it discharges and
    must precharge again) — Property 2.1 — and domino logic is glitch-free
    (Property 2.2), so zero-delay evaluation is exact; {!event_evaluate}
    demonstrates the glitch-freedom explicitly under adversarial input
    arrival orders.

    This library measures raw {e activity} only; pricing lives one layer
    up in [Dpa_power.Estimate.price] (see [Dpa_power.Estimate.of_activity])
    so the power library can also call the simulator as the Monte-Carlo
    fallback rung of its resource-bounded estimation engine. *)

type activity = {
  node_probs : float array;  (** measured signal probability per block node *)
  input_toggles : float array;
      (** measured toggle rate per {e original} primary input position *)
  cycles : int;
  fire_counts : int array;  (** discharge events per block node *)
}

val measure :
  ?cycles:int ->
  ?cancel:Dpa_util.Cancel.t ->
  Dpa_util.Rng.t ->
  input_probs:float array ->
  Dpa_domino.Mapped.t ->
  activity
(** Drives the block with Bernoulli vectors over the {e original} primary
    inputs (default {!Compiled.default_cycles} cycles). The measured
    activity uses the same per-node indexing as the BDD estimator, so
    the two are directly comparable once priced with the same model.

    Lowers the block to the bit-parallel {!Compiled} tape and runs it;
    [fire_counts], [input_toggles] and the derived probabilities are
    bit-identical to {!measure_reference} for equal seeds. Emits a
    [sim.run] trace span and publishes the
    [sim.compiled.cycles_per_sec] gauge.

    [cancel] is polled once per 63-cycle tape pass; a fired token raises
    [Dpa_error.Error (Cancelled _)]. The checks never perturb the random
    stream. *)

val measure_reference :
  ?cycles:int -> Dpa_util.Rng.t -> input_probs:float array -> Dpa_domino.Mapped.t -> activity
(** The executable specification of {!measure}: a cycle-at-a-time
    interpreter, one {!Dpa_logic.Eval.all_nodes} walk per cycle over the
    same random stream (one draw per input per cycle, inputs in
    ascending order). The test suite and [bench sim] hold {!measure} to
    bit-identical counts against it; no production path calls it. *)

type evaluate_trace = {
  rises : int array;  (** 0→1 transitions per node during one evaluate *)
  final : bool array;  (** values at the end of the evaluate phase *)
}

val event_evaluate :
  Dpa_util.Rng.t -> Dpa_domino.Mapped.t -> bool array -> evaluate_trace
(** Event-driven evaluation of one cycle with the true input literals
    arriving in a random order: inputs only rise, the network is monotone,
    so every node makes at most one transition regardless of timing — the
    executable form of Property 2.2. *)
