(** Reduced ordered binary decision diagrams (Bryant 1986).

    A manager owns a fixed variable order over levels [0 … nvars-1]
    (level 0 is tested first / topmost). Nodes are interned in a unique
    table, so structural equality of functions is id equality. The manager
    also memoizes [ite], the single combinator all Boolean operations are
    built from.

    {!ite} allocates nothing unless it creates a node, and a node costs
    only its slots in arrays that grow by doubling: node attributes live in
    dense parallel int arrays indexed by node id, the unique table is a
    {!Dpa_util.Int3_table} (three key ints packed inline, probed once per
    lookup-or-intern), and no call builds a tuple, closure or float.

    The ite memo is a {e computed table} in the manner of Brace, Rudell and
    Bryant (DAC 1990): direct-mapped, four ints per entry [(f, g, h,
    result)], a full-key compare, and a colliding entry simply overwritten.
    It is a lossy memo: canonicity lives in the unique table, so a lost
    entry costs a recomputation whose every intern is a unique-table hit.
    Node ids, allocation order and every budget, deadline and cancellation
    check (all made at node creation) are therefore independent of the
    table's size and contents. It starts at the size {!create_sized} is
    given and doubles while the live node count exceeds its entry count,
    up to a fixed ceiling of 2{^20} entries. {!stats} exposes the
    probe/hit/resize counters so benchmarks can report cache behaviour.

    Memory is bounded by mark-and-sweep, as in the same paper: {!collect}
    frees every node unreachable from the roots it is given, and node
    creation reuses a freed id before it hands out a new one. *)

type manager

type node = int
(** Node handle, valid for the creating manager only. *)

val create : nvars:int -> manager
(** Fresh manager with [nvars] variable levels. *)

val create_sized : nvars:int -> cache_capacity:int -> manager
(** Like {!create} but presizes the unique table and the computed table
    ([cache_capacity] slots or entries, rounded up to a power of two of at
    least 16; {!create} uses 1024). The unique table grows at 50% load and
    the computed table as described above, so the hint saves only rehash
    churn and never changes a result. *)

val nvars : manager -> int
(** Number of variable levels the manager was created with. *)

val adopt : manager -> unit
(** Transfers manager ownership to the calling domain. A manager is
    owned by the domain that created it: its unique table, computed table
    and node store are unsynchronized, so mutating entry points
    ({!var}, {!ite} and the operators built on it, {!set_budget},
    {!prob_cache}, {!collect}) assert that the caller is the owner and raise a
    typed {!Dpa_util.Dpa_error.Internal} error otherwise — turning a
    latent cross-domain data race into an immediate, attributable
    failure. Call [adopt] only after a genuine handoff, i.e. when the
    previous owner will never touch the manager again. *)

(** {2 Resource budget}

    A manager optionally carries a node budget and a wall-clock deadline.
    Every node creation checks them (the deadline is polled once per 1024
    creations, so traffic that creates no node costs nothing) and raises the
    typed {!Dpa_util.Dpa_error.Budget_exceeded} — never a bare [Failure] —
    when exhausted. The manager stays valid after exhaustion: already
    interned nodes, probabilities and lookups keep working, so a caller
    can salvage the part of the computation that completed, then
    {!collect} and retry, or fall back to simulation.

    A {!Dpa_util.Cancel} token may ride along: its flag is polled on
    every allocation (one atomic load) and its deadline on the same
    1024-allocation stride, but firing raises
    [Dpa_error.Error (Cancelled _)] — a hard stop the fallback ladder
    propagates instead of catching. *)

val set_budget :
  ?max_nodes:int ->
  ?deadline:float ->
  ?cancel:Dpa_util.Cancel.t ->
  ?context:string ->
  manager ->
  unit
(** [set_budget ?max_nodes ?deadline ?cancel m] installs (or, with no
    arguments, clears) the budget. [max_nodes] bounds {!live_nodes}:
    creating a node raises once [max_nodes] nodes are live;
    [deadline] is an absolute [Unix.gettimeofday] timestamp. [context]
    tags the {!Dpa_util.Dpa_error.budget_report} (e.g. which cone was
    building). [cancel] makes builds under this manager cooperatively
    cancellable. *)

val clear_budget : manager -> unit
(** Removes any installed budget. *)

val set_budget_context : manager -> string -> unit
(** Re-tags subsequent budget errors without resetting the budget. *)

val bdd_false : node
(** The constant-false terminal (id 0, shared by every manager). *)

val bdd_true : node
(** The constant-true terminal (id 1, shared by every manager). *)

val var : manager -> int -> node
(** [var m level] is the single-variable function for [level]. Raises
    [Invalid_argument] outside [0 … nvars-1]. *)

val ite : manager -> node -> node -> node -> node
(** If-then-else: [ite m f g h = (f ∧ g) ∨ (¬f ∧ h)]. *)

val apply_and : manager -> node -> node -> node
(** Conjunction, as [ite f g false]. *)

val apply_or : manager -> node -> node -> node
(** Disjunction, as [ite f true g]. *)

val apply_xor : manager -> node -> node -> node
(** Exclusive or, as [ite f (neg g) g]. *)

val neg : manager -> node -> node
(** Complement, as [ite f false true]. *)

val level : manager -> node -> int
(** Decision level of an internal node; raises on terminals. *)

val low : manager -> node -> node
(** Else-cofactor (the decision variable false); raises on terminals. *)

val high : manager -> node -> node
(** Then-cofactor (the decision variable true); raises on terminals. *)

val is_terminal : node -> bool
(** True exactly for {!bdd_false} and {!bdd_true}. *)

val eval : manager -> node -> bool array -> bool
(** [eval m f assignment] with [assignment] indexed by level. *)

val size : manager -> node -> int
(** Internal (non-terminal) node count of one function. *)

val shared_size : manager -> node list -> int
(** Internal node count of the union of the given functions' graphs — the
    quantity the paper's Fig. 10 compares across variable orders. *)

val total_nodes : manager -> int
(** Node ids handed out, terminals included: every node created, on a
    manager never collected. A new id is handed out only when the free
    list is empty, that is when every id is live, so this is also the
    peak of {!live_nodes} — the memory-pressure metric. *)

val live_nodes : manager -> int
(** {!total_nodes} minus the ids on the free list — the count the node
    budget is charged against. *)

val support : manager -> node -> int list
(** Levels the function actually depends on, ascending. *)

val to_dot : manager -> (string * node) list -> string
(** Graphviz rendering of the shared graph of the given labelled roots
    (dashed = low edge, solid = high edge); decision nodes are labelled
    ["x<level>"]. *)

val probability : manager -> float array -> node -> float
(** [probability m p f] is the exact probability that [f] evaluates true
    when level [l] is independently true with probability [p.(l)] — linear
    in the node count (memoized descent). The single-root reference;
    many roots share one memo through {!prob_cache}. *)

(** {2 Persistent probability cache} *)

type prob_cache
(** A dense per-node-id probability memo bound to one manager and one
    level-probability vector, surviving across calls: re-evaluating a
    function whose nodes were already visited costs one array read. The
    phase search's slot table creates one before it builds and prices
    every slot through it as the manager grows. *)

val prob_cache : manager -> float array -> prob_cache
(** The vector is copied; it must match the manager's [nvars]. *)

val cached_probability : prob_cache -> node -> float
(** Valid for nodes created after the cache, too — the memo tracks manager
    growth, preserving already-computed entries (a live id keeps its
    function; see {!collect} for freed ones). *)

(** {2 Collection} *)

val collect : ?cache:prob_cache -> manager -> node list -> int
(** [collect ?cache m roots] frees every internal node not reachable from
    [roots] and returns how many it freed. A freed node leaves the unique
    table and its id goes on the free list, which node creation serves
    first; every node reachable from [roots] keeps its id and function,
    so interning a surviving [(level, low, high)] still finds it. The
    computed table is emptied, since its entries may name freed ids, and
    [cache]'s memo entry for every freed id is reset, so a read after the
    id is reused prices the new function. Any other {!prob_cache} on [m]
    is stale once a freed id is reused. *)

(** {2 Instrumentation} *)

type stats = {
  nodes : int;  (** nodes created, terminals and reused ids included *)
  unique_probes : int;
  unique_hits : int;
  unique_resizes : int;
  ite_probes : int;  (** computed-table lookups (calls no terminal case answered) *)
  ite_hits : int;  (** lookups that found their full key *)
  ite_resizes : int;  (** computed-table doublings *)
  collections : int;  (** {!collect} calls *)
  nodes_freed : int;  (** ids freed by those calls *)
}

val stats : manager -> stats
(** Raw counter snapshot of one manager. This is the low-level reading;
    tooling should prefer the process-wide registry fed by
    {!publish_metrics}, which aggregates across managers. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering with hit rates, for bench output. *)

val publish_metrics : manager -> unit
(** Folds this manager's counters into the {!Dpa_obs.Metrics} registry —
    the one source of truth for BDD kernel counters. Publishes {e deltas}:
    each call adds only the growth since the previous call on the same
    manager, so calling after every estimate keeps process totals exact
    even with many short-lived managers. Registry names:
    [bdd.nodes_allocated], [bdd.unique.{probes,hits,resizes}],
    [bdd.ite.{probes,hits,resizes}], [bdd.collections],
    [bdd.nodes_freed] (counters) and [bdd.manager.nodes],
    [bdd.manager.peak_nodes] (gauges, both from {!total_nodes}, the
    peak live count). *)
