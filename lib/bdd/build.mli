(** Building BDDs for every node of a netlist under a chosen variable
    order, and computing exact signal probabilities from them — the power
    estimation back end of the paper's flow. *)

type t = {
  manager : Robdd.manager;
  roots : Robdd.node array;  (** per netlist node id *)
  order : int array;  (** level → input position *)
}

val of_netlist : ?order:int array -> Dpa_logic.Netlist.t -> t
(** Builds the BDD of every node bottom-up. [order] defaults to
    {!Ordering.reverse_topological}. *)

val output_roots : Dpa_logic.Netlist.t -> t -> Robdd.node array
(** BDD roots of the primary outputs, declaration order. *)

val shared_output_size : Dpa_logic.Netlist.t -> t -> int
(** Node count of the shared graph of all primary outputs — the Fig. 10
    comparison metric. *)

val shared_all_size : Dpa_logic.Netlist.t -> t -> int
(** Node count of the shared graph of {e all} circuit nodes (the paper
    builds BDDs "for all (non input) circuit nodes"). *)

val best_order :
  Dpa_logic.Netlist.t ->
  (string * int array) list ->
  string * int array * int
(** Builds the netlist under each candidate order and returns the one with
    the smallest all-gates shared node count (name, order, nodes). A cheap
    static alternative to dynamic reordering: at this library's block
    sizes a rebuild costs well under a millisecond. Raises
    [Invalid_argument] on an empty candidate list. *)

val probabilities :
  ?order:int array -> input_probs:float array -> Dpa_logic.Netlist.t -> float array
(** [probabilities ~input_probs t] is the exact signal probability of every
    node of [t]; [input_probs] is indexed by input position. This is
    "Compute Signal Probabilities Using Enhanced BDD" in the paper's
    Fig. 6, on the netlist itself; the phase search reads the same
    numbers off its priced all-positive block instead
    ([Dpa_power.Estimate.original_probabilities]), and the tests hold
    the two to each other. *)

val probabilities_of_built : input_probs:float array -> t -> float array
(** Same, over an already-built {!t} — all roots are evaluated under one
    shared memo, so BDD structure shared between outputs is priced once. *)
