(** In-place dynamic variable reordering (Rudell 1993 sifting) for the
    packed {!Robdd} node store.

    The primitive is the adjacent-level swap: exchanging levels
    [(l, l+1)] rewires only the nodes stored at those two levels — cost
    proportional to nodes touched, never to manager size — and every
    live node id keeps denoting the same Boolean function afterwards.
    That function-preservation is the load-bearing property: ite memo
    entries and {!Robdd.prob_cache} memos keyed by node id remain
    bit-for-bit valid across arbitrary swap sequences (the computed table
    is still cleared at session boundaries, purely so stale entries cannot
    resurrect ids the session retired).

    On top of the swap sits the classic sift loop: each variable —
    largest level first — walks to the nearer boundary, then the far
    one, then back to the best position seen, abandoning a direction
    when the graph grows past 1.2 × its size at that variable's start.
    The caller's [order] array is permuted in place, swap by swap, so it
    always names the manager's current order — even when the session
    ends early by budget or cancellation.

    A session opens with a reachability sweep from [roots]: unreachable
    debris (typically from budget-aborted cone builds) is retired, its
    node count credited back to the manager's budget
    ({!Robdd.live_nodes} drops), which is what gives a post-sift retry
    its headroom.

    Budget raises ({!Dpa_util.Dpa_error.Budget_exceeded} for
    [max_swaps] / [max_new_nodes] / [deadline]) and cancellation
    ([Dpa_error.Error (Cancelled _)] via [cancel]) happen only at swap
    boundaries, where every store invariant holds — the manager stays
    fully usable. Before a budget raise propagates, the variable being
    sifted walks back to its best position seen (a few more swaps past
    the budget), so the live count never ends above its value after
    the opening sweep; a cancelled session stops at once, holding
    whatever order it had reached. *)

type result = {
  swaps : int;  (** adjacent-level swaps performed *)
  vars_sifted : int;  (** variables moved through the full sift walk *)
  nodes_before : int;  (** live nodes after the opening garbage sweep *)
  nodes_after : int;  (** live nodes at session end *)
  reclaimed : int;  (** nodes retired (garbage sweep + swap deaths) *)
  allocated : int;  (** node ids minted by swaps (ids are never reused) *)
}

val sift :
  ?passes:int ->
  ?max_swaps:int ->
  ?max_new_nodes:int ->
  ?deadline:float ->
  ?cancel:Dpa_util.Cancel.t ->
  roots:Robdd.node list ->
  order:int array ->
  Robdd.manager ->
  result
(** [sift ~roots ~order m] reorders [m] in place. [order] maps level to
    caller-side variable token ([order] entries need only be distinct;
    length must equal the manager's [nvars]) and is permuted alongside
    the store. [roots] pins the functions that must survive — everything
    unreachable from them is retired when the session opens.

    [passes] (default 1) bounds full sift passes; a pass that fails to
    shrink the graph ends the loop early. [max_swaps] / [max_new_nodes]
    bound total session work and allocation
    ([Budget_exceeded] with context ["sift.max_swaps"] /
    ["sift.max_new_nodes"]); [deadline] is an absolute
    [Unix.gettimeofday] timestamp ([Budget_exceeded], [Wall_clock]).

    Publishes [bdd.sift.swaps] and [bdd.sift.nodes_before/after]
    counters to the metrics registry (also on early exit).

    Single-domain like every manager entry point: raises the standard
    ownership error when called from a non-owning domain. *)
