(** Resource-bounded estimation engine: the degradation ladder.

    Exact BDD probability estimation is worst-case exponential in circuit
    size. The engine makes every estimate terminate inside a configurable
    resource {!budget} by degrading gracefully, one output cone at a time:

    + {b exact} — output cones are grouped into at most 16 shards by
      support overlap, and each shard builds its cones, one at a time,
      in one manager under the node cap and wall-clock deadline
      ({!Dpa_bdd.Robdd.set_budget});
    + {b retry} — a shard with failed cones switches its build into
      collecting mode ({!Dpa_bdd.Build.collecting}) and retries them in
      the same manager, under the same order and cap: each node's
      probability is recorded as it is built, a node's BDD is unpinned
      once its fanouts are built, and a node that meets the cap first
      frees every unpinned node ({!Dpa_bdd.Robdd.collect}) and is
      retried once — so the cap bounds the live frontier, and a rescued
      cone carries {!Estimate.of_mapped}'s exact bits;
    + {b simulate} — cones still unbuilt are priced from one whole-block
      Monte-Carlo run of the domino simulator
      ({!Dpa_sim.Simulator.measure}) with a sample count sized from the
      requested 95% confidence-interval half-width, merged with the exact
      probabilities of everything that {e did} build.

    Every answer carries a {!degradation} report saying which rung priced
    which cone, so callers (and the CLI) can surface approximation
    honestly. With [fallback = No_fallback] (or [Reorder_retry] when the
    retry is insufficient) the engine raises a typed
    {!Dpa_util.Dpa_error.Error} with a [Budget] payload instead of
    degrading — never a bare [Failure]. *)

(** What to do when the exact build exhausts its budget. Each level
    includes the previous: [Reorder_retry] collects and retries (the
    name and its ["reorder"] spelling predate the collecting retry),
    [Simulate] additionally falls back to simulation. *)
type fallback = No_fallback | Reorder_retry | Simulate

type budget = {
  max_bdd_nodes : int option;
      (** manager node cap: no BDD manager the ladder creates holds more
          live nodes, rung-1 build and collecting retry alike; [None] =
          unlimited *)
  deadline_s : float option;
      (** wall-clock seconds for the whole estimate; [None] = unlimited *)
  fallback : fallback;
  sim_halfwidth : float;
      (** target 95% confidence-interval half-width on simulated
          probabilities; sizes the Monte-Carlo sample count *)
  reorder_passes : int;
      (** [0] turns the retry rung off, any positive value turns it on
          (the field keeps its name from the sifting rung it replaced) *)
}

val default_budget : budget
(** Unlimited resources, [Simulate] fallback, 1% half-width, retry rung
    on ([reorder_passes = 2]). *)

val bounded : ?max_bdd_nodes:int -> ?deadline_s:float -> ?fallback:fallback -> unit -> budget
(** [default_budget] with the given limits installed. *)

val is_unbounded : budget -> bool
(** No node cap and no deadline — the engine short-circuits to the plain
    exact estimator. *)

val fallback_of_string : string -> fallback option
(** ["none"] | ["reorder"] | ["sim"] (the CLI spelling). *)

val fallback_to_string : fallback -> string

val sim_seed : int
(** The simulator seed of every Monte-Carlo rung (1): identical inputs
    give identical fallback numbers, which keeps greedy phase search
    monotone. *)

val sim_cycles_of : budget -> int
(** Monte-Carlo sample count implied by [sim_halfwidth] at 95%
    confidence: [⌈(z / 2·halfwidth)²⌉] with z = 1.960, clamped to
    [1_000 .. 200_000]. *)

val ci_halfwidth_of : int -> float
(** Worst-case (p = ½) 95% confidence-interval half-width actually
    achieved by a run of the given cycle count. *)

(** {2 Degradation report} *)

(** How one output cone's probabilities were obtained: rung 1, the retry
    rung ([Reordered], spelled ["reordered"] and counted as [re] for the
    tools that parse it) or simulation. *)
type cone_method = Exact | Reordered | Simulated

val cone_method_to_string : cone_method -> string
(** ["exact"] | ["reordered"] | ["simulated"] — also the spelling of the
    [method] attribute on [engine.cone.method] trace events. *)

type degradation = {
  methods : cone_method array;  (** per output cone, in output order *)
  bdd_nodes : int;
      (** peak live nodes of the largest manager the estimate built
          ({!Dpa_bdd.Robdd.total_nodes}) — at most [max_bdd_nodes] under
          a node cap *)
  reorder_used : bool;  (** the retry rung rescued at least one cone *)
  sim_cycles : int;  (** 0 when no cone needed simulation *)
  ci_halfwidth : float;  (** 0.0 when no cone needed simulation *)
}

val exact_cones : degradation -> int

val reordered_cones : degradation -> int

val simulated_cones : degradation -> int

val all_exact : degradation -> bool

val exact_degradation : n_outputs:int -> bdd_nodes:int -> degradation
(** The trivial report of a fully exact estimate. *)

val degradation_to_string : degradation -> string
(** One human-readable line, e.g.
    ["2 exact / 0 reordered / 1 simulated of 3 cones (512 BDD nodes, 9604 sim cycles, ±0.0100 CI)"]. *)

val degradation_label : degradation -> string
(** Compact CSV-friendly label: ["exact"] or ["2ex+0re+1sim"]. *)

(** {2 Estimation} *)

type result = {
  report : Estimate.report;
  degradation : degradation;
}

val estimate :
  ?par:Dpa_util.Par.t ->
  ?budget:budget ->
  ?cancel:Dpa_util.Cancel.t ->
  input_probs:float array ->
  Dpa_domino.Mapped.t ->
  result
(** Runs the ladder on one mapped block. With an unbounded budget this is
    exactly {!Estimate.of_mapped}: one manager over the whole block, with
    or without [par]. Under a budget, output cones are built one at a
    time so exhaustion is contained: sibling cones keep the nodes
    interned before the blow-up and their probabilities stay exact.

    The budgeted path always partitions the output cones into at most 16
    shards by a greedy overlap heuristic (big cones first, each joining
    the shard whose accumulated support it overlaps most, under a soft
    load cap), and each shard builds {e all} its cones in one private
    manager capped at [max_bdd_nodes] ({!Dpa_bdd.Robdd.adopt}
    discipline) — cross-cone sharing survives inside a shard. With
    [par] the shards run across the pool's domains; without it they run
    in order on the calling domain. The plan is a pure function of the
    cones, never of the pool, and the Monte-Carlo rung is one run from
    [sim_seed] on the calling domain, so probabilities, powers,
    [bdd_nodes] and the degradation report are bit-identical with no
    pool and at every [jobs] count.

    [cancel] is a cooperative-cancellation token, orthogonal to the
    budget: it is installed on every manager the ladder creates, polled
    between rungs and inside the Monte-Carlo loops, and firing raises
    [Dpa_error.Error (Cancelled _)] — a hard stop the ladder propagates
    instead of degrading, so a cancelled estimate never falls back. The
    checks never change numeric results.

    @raise Dpa_util.Dpa_error.Error with a [Budget] payload when cones
    remain unpriced and [budget.fallback] forbids simulation. *)
