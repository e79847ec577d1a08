(** Ground-truth power measurement of a candidate phase assignment,
    memoized per assignment, so a search never pays twice for the same
    candidate.

    How a candidate is priced follows from the request and the library,
    in this order:
    - a custom [pricer] gets the candidate's realized, mapped block;
    - the engine: every candidate gets its own
      {!Dpa_power.Engine.estimate}, under a bounded [budget], or under
      a library with compound cells, whose absorption reads each block's
      fanout counts, with the unbounded budget — that is,
      {!Dpa_power.Estimate.of_mapped};
    - otherwise the slot table: one {!Dpa_power.Estimate.table} priced
      once, and each candidate summed from it — no realization, mapping
      or BDD build per candidate; this is the paper's Property 4.1 (a
      phase flip only complements a cone's probabilities). The table
      builds in its own manager under one variable order, the
      all-positive block's extended by the PIs it does not reference,
      so its price is bit-identical to a build of the candidate's block
      under that order, and within the last ulp of a from-scratch
      {!Dpa_power.Estimate.of_mapped} (its per-block order sums in
      another order), which the tests check by passing that oracle as a
      custom [pricer]. The table is built on first use, on the calling
      domain, inside a [phase.measure.table] trace span.

    A search prices one candidate at a time. Under a bounded budget
    with a {!Dpa_util.Par} pool, the pool spreads that candidate's
    shards ({!Dpa_power.Engine.estimate}); the one exception is
    exhaustive search, which prices its whole enumeration across the
    pool ({!prefetch}). The trajectory counters ({!evaluations},
    {!degraded_evaluations}, {!worst_degradation}) advance only when
    {!eval} first visits an assignment, never when a candidate is priced
    ahead of the search.

    The same pricing supplies the greedy searches' base probabilities
    ({!base_probs}): they are read off the measure's own price of the
    all-positive block, never from a separate netlist build. *)

type sample = {
  power : float;  (** Estimate total: domino + boundary inverters *)
  size : int;  (** standard-cell count of the mapped block *)
  domino_switching : float;
}

type t

val create :
  ?library:Dpa_domino.Library.t ->
  ?budget:Dpa_power.Engine.budget ->
  ?cancel:Dpa_util.Cancel.t ->
  ?pricer:(Dpa_domino.Mapped.t -> sample) ->
  ?par:Dpa_util.Par.t ->
  input_probs:float array ->
  Dpa_logic.Netlist.t ->
  t
(** The netlist must be domino-ready (no XOR). [pricer]
    overrides how a mapped block is turned into a sample — the default is
    the BDD power estimate and the plain cell count; the timing-integrated
    optimizer substitutes a price-after-resizing pricer.

    A non-unbounded [budget] switches the built-in pricer to the
    resource-bounded {!Dpa_power.Engine}: every candidate is priced under
    the same node/deadline limits with the same deterministic simulator
    seed, so a greedy search ranks candidates consistently even when the
    degradation ladder kicks in — fallback never breaks monotonicity.
    Degradations are tallied per distinct candidate (see
    {!degraded_evaluations}, {!worst_degradation}). Without one, a
    [library] with compound cells prices every candidate with the engine
    too, exactly ({!Dpa_power.Estimate.of_mapped}), and any other
    library prices from the slot table.

    [par] is the pool the bounded engine prices on: {!eval} and
    {!base_probs} spread each estimate's shards across it, and
    {!prefetch} spreads candidates across it. It never changes any
    measured value, only where and when prices are computed.

    [cancel] makes every measurement cooperatively cancellable: the token
    is polled on each {!eval}, threaded into the engine, and installed on
    the slot table's manager, so a firing token aborts a search
    mid-candidate with [Dpa_error.Error (Cancelled _)]. The checks never
    change measured values. *)

val eval : t -> Dpa_synth.Phase.assignment -> sample
(** The price of an assignment; its first visit counts as an
    evaluation. A price that raises (a fired token, a budget error under
    [fallback none], a custom pricer's exception) records nothing, so a
    later [eval] of the same assignment prices it afresh. *)

val prefetch : t -> Dpa_synth.Phase.assignment Seq.t -> unit
(** Prices the given candidates across the pool's domains, one candidate
    per task in chunks of [64 × jobs], and stores the results in the
    sample cache, so subsequent {!eval} calls answer without
    recomputing. For a search that will visit every candidate
    ({!Exhaustive.run}), where pricing ahead wastes nothing. Duplicates
    and already-priced candidates are skipped. A no-op unless candidates
    are priced by the engine under a bounded budget with a pool of at
    least two jobs: a table price costs too little to spread, and the
    table's manager lives on the calling domain. Does {e not} touch
    {!evaluations} or the degradation tallies — those track the search
    trajectory. *)

val prime :
  t -> Dpa_synth.Phase.assignment -> Dpa_domino.Mapped.t -> Dpa_power.Engine.result -> unit
(** [prime t a mapped r] stores [r], an {!Dpa_power.Engine.estimate} of
    [a]'s mapped block under this measure's budget and cancellation
    token, as the price of [a], the way {!prefetch} stores one priced
    ahead: [a] counts as an evaluation, and its degradation is tallied,
    only when the search visits it. When [a] is all-positive, its
    estimate also supplies {!base_probs}. The engine's answer is the
    same with or without a pool, so the caller may have estimated with
    one. A no-op unless candidates are priced by the engine (a bounded
    [budget], or compound cells, and no custom [pricer]): the slot
    table's price differs from a from-scratch estimate in the last ulp.
    An assignment already priced keeps its entry. *)

val base_probs : t -> float array
(** The K cost's base probabilities (paper §4.1): the signal probability
    of every node of the network in its all-positive implementation, read
    off that one block by Property 4.1
    ({!Dpa_power.Estimate.original_probabilities}; NaN for a node outside
    every PO cone). Where the block's probabilities come from follows how
    candidates are priced:
    - under the engine, the all-positive estimate's [node_probs] at each
      slot's root: the one {!prime} stored (a flow primes MA's estimate,
      which is all-positive when MA is), else the one the search's first
      measurement computed;
    - under the slot table, its per-slot root probabilities
      ({!Dpa_power.Estimate.table_original_probabilities});
    - under a custom [pricer], whose sample is opaque,
      {!Dpa_power.Estimate.of_mapped} of the all-positive block; for a
      library without compound cells these are the slot table's bits
      (the table builds that block under the block's own order).

    Pricing the all-positive assignment only to get these counts as an
    evaluation only when the search visits it, as with {!prime} and
    {!prefetch}. Computed once; only this one vector is kept.
    Unbudgeted, the values equal {!Dpa_bdd.Build.probabilities} bit for
    bit at input probability 0.5 on the circuits the tests check, and to
    within a few ulps elsewhere (the block's variable order differs from
    the netlist build's); under a budget they carry the estimate's
    degradation. *)

val priced :
  t -> Dpa_synth.Phase.assignment -> (sample * Dpa_power.Engine.degradation) option
(** The engine's sample and degradation for an assignment this measure
    has priced (visited, prefetched or primed); [None] for an assignment
    it has not priced, and always [None] when candidates are not priced
    by the engine. *)

val evaluations : t -> int
(** Number of {e distinct} assignments the search visited via {!eval}
    (trajectory cache misses — candidates priced ahead are excluded until
    the search actually reaches them). *)

val degraded_evaluations : t -> int
(** Distinct visited assignments whose estimate degraded below fully
    exact (only ever nonzero under a [budget]). *)

val worst_degradation : t -> Dpa_power.Engine.degradation option
(** The most degraded report seen (most simulated cones, ties broken by
    reordered cones); [None] when every estimate was exact. *)

val realize_mapped : t -> Dpa_synth.Phase.assignment -> Dpa_domino.Mapped.t
(** The mapped block for an assignment (not cached). *)
