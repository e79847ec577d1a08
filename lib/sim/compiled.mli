(** Bit-parallel compiled simulation: the netlist is lowered once to a
    flat instruction tape and evaluated over 63-bit words, one simulated
    cycle per bit lane, so one tape pass covers up to 63 Bernoulli
    cycles — the netlist-to-array-program shape of Blarney's simulation
    backend, applied to the Monte-Carlo rung here. It is the only
    evaluator production code runs.

    {b Determinism contract.} The tape is {e bit-identical} to
    {!Simulator.measure_reference}, the cycle-at-a-time interpreter kept
    as its executable specification, not merely statistically
    equivalent: the packed generator ({!Dpa_util.Rng.fill_bernoulli_lanes})
    draws one Bernoulli per input per cycle in the interpreter's exact
    order (cycle-major, input-minor) and packs cycle [c] of a pass into
    lane [c], so every per-node fire count and per-input toggle count
    comes out equal for equal seeds — at any cycle count, including
    partial final passes ([cycles mod 63 ≠ 0]). The test suite holds
    the tape to that equality; DESIGN.md §12 documents the tape
    format. *)

type t
(** A compiled program: the tape, plus the literal map from block-input
    positions to original primary inputs. Immutable after compilation —
    safe to share across domains; the mutable register file is allocated
    per measurement. *)

val of_block : Dpa_domino.Mapped.t -> t
(** Compile a mapped domino block. Block inputs load from the original
    PI stream through {!Dpa_domino.Mapped.literals} (negative literals
    complement the packed word), exactly as the interpreter's
    literal-vector expansion. Emits a [sim.compile] trace span. *)

val of_netlist : Dpa_logic.Netlist.t -> t
(** Compile a raw netlist (any gate type, including [Xor]); input [k]
    of the netlist reads stream [k] directly. Serves the netlist-level
    Monte-Carlo rung of [Dpa_power.Engine.node_probabilities]. *)

val n_nodes : t -> int

val n_instructions : t -> int

val default_cycles : int
(** The one default sample count ([10_000]) shared by every measurement
    entry point — {!measure_counts}, {!Simulator.measure} and
    {!Static_sim.measure} — so that "I didn't ask for a cycle count"
    means the same thing everywhere. Overridable per call ([?cycles]) and
    from the CLI ([--cycles]). Chosen to put the binomial 95% confidence
    halfwidth on a measured probability below ±0.01. *)

type counts = {
  fire : int array;  (** cycles each node evaluated to 1 *)
  source_toggles : int array;  (** toggles per original primary input *)
  cycles : int;
}

val measure_counts :
  ?cycles:int ->
  ?cancel:Dpa_util.Cancel.t ->
  Dpa_util.Rng.t ->
  input_probs:float array ->
  t ->
  counts
(** Raw activity counts over [cycles] Bernoulli cycles (default
    {!default_cycles}); {!Simulator.measure} dresses them up as an
    {!Simulator.activity}. [input_probs] indexes the {e original}
    primary inputs, as in the interpreter. [cancel] is polled once per
    63-cycle tape pass; a fired token raises
    [Dpa_error.Error (Cancelled _)]. *)

val node_probabilities :
  ?cycles:int ->
  ?cancel:Dpa_util.Cancel.t ->
  Dpa_util.Rng.t ->
  input_probs:float array ->
  t ->
  float array
(** [measure_counts] reduced to per-node signal probabilities —
    the shape [Dpa_power.Engine.node_probabilities]'s simulation rung
    needs. *)
