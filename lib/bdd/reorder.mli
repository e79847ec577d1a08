(** Static variable-order refinement by adjacent-swap hill climbing.

    A lightweight alternative to dynamic reordering (sifting):
    at this library's block sizes a full rebuild costs well under a
    millisecond, so the optimizer simply rebuilds under candidate orders —
    swapping adjacent variables (the same move sifting makes) and keeping
    improvements until a pass makes none. Used to squeeze the paper's
    reverse-topological seed order further, and to quantify how close that
    heuristic already is to a local optimum. *)

type result = {
  order : int array;
  nodes : int;  (** shared node count of all gates under [order] *)
  initial_nodes : int;  (** cost of the start order *)
  swaps_accepted : int;
  passes : int;
  oracle_calls : int;
      (** rebuilds priced: one for the start order, then one per candidate swap *)
}

val refine : ?max_passes:int -> Dpa_logic.Netlist.t -> int array -> result
(** Hill-climbs from the given order (default at most 8 passes over all
    adjacent pairs). The result is never worse than the input. The Fig. 10
    ordering study's tool; no estimator reorders at all (every build keeps
    the block order, and the ladder's retry rung collects instead). *)
