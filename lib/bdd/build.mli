(** The one builder from netlist nodes to BDD nodes, and the exact signal
    probabilities read off them ("Compute Signal Probabilities Using
    Enhanced BDD", the paper's Fig. 6, under the Fig. 10 order).

    A build is a netlist, a variable order over {e tokens} and a
    {e leaf map} from each input position to a token and a complemented
    flag. {!of_netlist} uses the identity leaf (token = input position);
    a mapped block uses the literal leaf ([Dpa_power.Estimate.start_build]:
    both literals of a PI read one variable). Either way every node gets
    the same BDD operations in id order. *)

type t

val manager : t -> Robdd.manager

val order : t -> int array
(** Level → token. *)

val roots : t -> Robdd.node array
(** Root per netlist node id; {!Robdd.bdd_false} where not built. *)

val start :
  ?max_nodes:int -> order:int array -> leaf:(int -> int * bool) -> Dpa_logic.Netlist.t -> t
(** A fresh manager with one level per (distinct) token of [order], and
    nothing built; [leaf k] is the token input position [k] reads and
    whether it reads it complemented. Install a budget on {!manager} to
    bound what follows, and pass its node cap as [max_nodes] so the
    tables are sized for what the cap lets it hold. *)

val build : t -> within:(int -> bool) -> unit
(** Builds every not-yet-built node selected by [within] (typically cone
    membership; fanins of a selected node must be selected too), in id
    order. May raise {!Dpa_util.Dpa_error.Budget_exceeded}; the build
    stays valid and a retry resumes from what was interned. *)

val node_probabilities : t -> input_probs:float array -> float array
(** Exact signal probability per netlist node under one shared memo
    ({!Robdd.prob_cache}), [input_probs] indexed by token; [Float.nan]
    where the node is not built. Raises [Invalid_argument] on a
    collecting build, whose unpinned roots may be freed: read the array
    {!collecting} returned instead. *)

val collecting : t -> input_probs:float array -> within:(int -> bool) -> float array
(** Switches the build into collecting mode for the nodes [within]
    selects (the {e union}; fanin-closed, like {!build}'s [within]) and
    returns their probability record: {!node_probabilities}' values for
    what is built now, and filled in by every later {!build} as each
    node is built. From here on a built node's root is {e pinned} while
    one of its fanouts in the union is unbuilt. When {!build} meets the
    node cap ([Budget_exceeded] on [Bdd_nodes]; a wall-clock or
    cancellation raise passes straight through), it runs
    {!Robdd.collect} from the pinned roots and then retries the node
    once if at most half the cap is live, and re-raises otherwise. The
    variable order never changes, so every recorded value is the one
    {!node_probabilities} would give. {!build} then raises
    [Invalid_argument] for a node outside the union. *)

val of_netlist : ?order:int array -> Dpa_logic.Netlist.t -> t
(** Every node under the identity leaf; [order] (level → input position)
    defaults to {!Ordering.reverse_topological}. *)

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
    node of [t]; [input_probs] is indexed by input position. The phase
    search reads the same numbers off its priced all-positive block
    instead ([Dpa_power.Estimate.original_probabilities]), and the tests
    hold the two to each other. *)
