(** Static variable-order refinement by adjacent-swap hill climbing.

    A lightweight alternative to in-place dynamic reordering (sifting):
    at this library's block sizes a full rebuild costs well under a
    millisecond, so the optimizer simply rebuilds under candidate orders —
    swapping adjacent variables (the same move sifting makes) and keeping
    improvements until a pass makes none. Used to squeeze the paper's
    reverse-topological seed order further, and to quantify how close that
    heuristic already is to a local optimum. *)

type result = {
  order : int array;
  nodes : int;  (** shared node count of all gates under [order] *)
  initial_nodes : int;  (** cost of the start order (or the seed given) *)
  swaps_accepted : int;
  passes : int;
  oracle_calls : int;  (** cost-oracle invocations — exactly one per candidate swap *)
}

val refine : ?max_passes:int -> Dpa_logic.Netlist.t -> int array -> result
(** Hill-climbs from the given order (default at most 8 passes over all
    adjacent pairs). The result is never worse than the input. *)

val refine_cost :
  ?max_passes:int -> ?initial_cost:int -> cost:(int array -> int) -> int array -> result
(** The same hill climb over an arbitrary cost oracle — the degradation
    ladder passes a {e budgeted} oracle ({!Build.bounded_size}) that
    returns [max_int] for orders whose build would blow the node budget,
    so the search can escape an infeasible start order without ever
    paying more than the budget per probe. [initial_cost] seeds the
    incumbent without probing the start order — callers that already
    know it (the ladder reaches reordering {e because} the start order
    blew its budget, i.e. cost [max_int]) save one full oracle call. *)

val refine_bounded :
  ?max_passes:int ->
  ?initial_cost:int ->
  ?deadline:float ->
  ?cancel:Dpa_util.Cancel.t ->
  max_nodes:int ->
  Dpa_logic.Netlist.t ->
  int array ->
  result option
(** [refine] under a node budget: every candidate build is capped at
    [max_nodes] manager nodes and the absolute [deadline]
    ({!Build.bounded_size}). [None] when no explored order (the start
    order included) fits the budget. *)
