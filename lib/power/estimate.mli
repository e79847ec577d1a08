(** BDD-based power estimation of a mapped domino block (paper §4.2).

    Signal probabilities are exact: BDDs are built over the {e original}
    primary-input variables, so the positive and negative literals of one
    input share a variable and reconvergence through complemented logic is
    handled correctly. The variable order follows the paper's heuristic
    applied to the block.

    Power accounting, per the paper's Fig. 5:
    - dynamic cell [i]: [S_i · C_i · drive_i · (1 + P_i)]
    - static input inverter on PI [x]: [2 p_x (1 - p_x)]
    - static output inverter on a negative-phase PO: [S_driver]. *)

type report = {
  node_probs : float array;  (** signal probability per block-net node *)
  domino_switching : float;  (** Σ S_i over dynamic cells (unit weights) *)
  domino_power : float;  (** Σ S_i·C_i·drive_i·(1+P_i) *)
  input_inverter_power : float;
  output_inverter_power : float;
  total : float;  (** domino + both inverter terms *)
  bdd_nodes : int;  (** manager size, complexity metric *)
}

val of_mapped :
  ?cancel:Dpa_util.Cancel.t -> input_probs:float array -> Dpa_domino.Mapped.t -> report
(** [input_probs] is indexed by {e original} primary-input position and
    must cover every PI the block references. The block is one
    {!partial_build} of every node in a fresh manager under
    {!block_order}, so there is one exact builder: the engine's shards
    run the same code a cone at a time. [bdd_nodes] is the manager's
    {!Dpa_bdd.Robdd.total_nodes}. [cancel] installs a
    cooperative-cancellation token on the manager: the build raises
    [Dpa_error.Error (Cancelled _)] promptly once the token fires, and the
    checks never change the numeric result. *)

val price :
  Dpa_domino.Mapped.t ->
  node_probs:float array ->
  input_toggle:(int -> float) ->
  report
(** Prices a block from externally supplied activity numbers: [node_probs]
    per block node (signal = switching probability for domino) and
    [input_toggle pos], the toggle probability of original PI [pos]
    (feeding its boundary inverter, if complemented). Shared between the
    BDD estimator (analytic activity) and the simulator (measured
    activity); [bdd_nodes] is 0. *)

val of_activity : Dpa_domino.Mapped.t -> Dpa_sim.Simulator.activity -> report
(** Prices {e measured} activity from the domino simulator with the same
    model as the BDD estimator — the two totals are directly comparable.
    [bdd_nodes] is 0. *)

(** {2 Partial building}

    The estimator's one BDD builder, literal-aware (both polarities of a
    PI share one BDD variable). {!of_mapped} builds every node at once;
    the resource-bounded engine ({!Engine}) builds a block one output
    cone at a time under a manager budget, so exhaustion can be
    attributed to — and recovered from — per cone. *)

type partial_build

val block_order : input_probs:float array -> Dpa_domino.Mapped.t -> int array
(** The paper's variable-order heuristic on the block, as {e original} PI
    positions (the same order {!of_mapped} uses). Validates that
    [input_probs] covers every referenced PI. *)

val start_build : ?max_nodes:int -> order:int array -> Dpa_domino.Mapped.t -> partial_build
(** Fresh manager over [order] (original PI positions) with nothing built.
    Install a budget on {!partial_manager} to bound what follows; pass its
    node cap as [max_nodes] too, so the manager's tables are sized for
    what the cap lets it hold rather than for the whole block. *)

val partial_manager : partial_build -> Dpa_bdd.Robdd.manager

val build_nodes : partial_build -> within:(int -> bool) -> unit
(** Builds every not-yet-built block node selected by [within] (typically
    cone membership), in topological order; fanins of a selected node must
    be selected too. May raise {!Dpa_util.Dpa_error.Budget_exceeded}; the
    partial build stays valid and a retry resumes from what was interned. *)

val partial_probabilities : partial_build -> input_probs:float array -> float array
(** Exact signal probability per block node; [Float.nan] where the node is
    not built. *)

val sift_partial :
  ?passes:int ->
  ?max_growth:float ->
  ?max_swaps:int ->
  ?max_new_nodes:int ->
  ?deadline:float ->
  ?cancel:Dpa_util.Cancel.t ->
  partial_build ->
  Dpa_bdd.Sift.result
(** In-place dynamic reordering ({!Dpa_bdd.Sift}) of the partial build:
    every built block root survives with its function (and node id)
    intact, the interned prefixes of budget-aborted cones are compacted,
    and everything unreachable from built roots is retired — handing its
    node count back to the manager budget for the retry. The build's
    variable order and PI-to-level map are updated in place, so
    {!build_nodes} / {!partial_probabilities} keep working afterwards,
    including when the sift itself ends early on
    {!Dpa_util.Dpa_error.Budget_exceeded} or cancellation (the manager is
    consistent at every swap boundary). Parameters as {!Dpa_bdd.Sift.sift}. *)

(** {2 Slot-table pricing}

    A {e slot} is an (original node, polarity) pair that a phase
    assignment demands ({!Dpa_synth.Inverterless.demand}). Property 4.1
    of the paper — a phase flip only complements a cone's probabilities
    — means a slot is realized by the same mapped cells, with the same
    probabilities, in every block that demands it. A {!table} holds
    those cells' probabilities and priced terms for every slot that
    either phase of any PO demands; {!of_table} then prices a candidate
    by walking its demanded slots and summing, with no realization,
    mapping or BDD build. *)

type table

val table :
  ?cancel:Dpa_util.Cancel.t ->
  input_probs:float array ->
  Dpa_domino.Library.t ->
  Dpa_logic.Netlist.t ->
  table
(** [table ~input_probs library net] prices every slot of the
    all-positive and the all-negative realization of [net] (a
    domino-ready network; [input_probs] has one entry per PI, and is
    copied); together their slots cover every assignment's. All of it is
    built in one fresh manager whose variable order is the all-positive
    block's {!block_order}, then every PI that block does not reference,
    ascending — so the order is the same whichever candidate is priced.
    The manager's kernel counters are published
    ({!Dpa_bdd.Robdd.publish_metrics}) once it is built. [cancel] is
    installed on the manager as in {!of_mapped}. Raises
    [Invalid_argument] for a library with compound cells
    ({!Dpa_domino.Mapped.absorbs}): absorption reads each block's fanout
    counts, so a slot's cells depend on the rest of the block. *)

val table_slots : table -> int
(** Slots priced into the table. *)

val table_cells : table -> int
(** Mapped cells held over all slots. *)

val table_bdd_nodes : table -> int
(** {!Dpa_bdd.Robdd.total_nodes} of the table's manager. *)

type table_price = {
  power : float;  (** the report's [total] *)
  size : int;  (** {!Dpa_domino.Mapped.size} *)
  switching : float;  (** the report's [domino_switching] *)
}

val of_table : table -> Dpa_synth.Phase.assignment -> table_price
(** The price of [a], bit for bit what {!price} gives for
    [Mapped.map ~library (Inverterless.realize net a)] with that block's
    probabilities built under the table's variable order ({!start_build}
    with that order, {!build_nodes} on every node,
    {!partial_probabilities}): the same terms summed in the same order.
    A node's probability depends only on its BDD under a fixed order,
    not on which manager holds it. *)

(** {2 Probabilities of the original network}

    Property 4.1 read backwards: a block that realizes an original node
    in either polarity holds its probability, [p] in [Pos] and [1 − p]
    in [Neg]. Every assignment's block realizes every AND/OR node of
    every PO cone in at least one polarity, so one priced block yields
    the signal probability of every node of the network it realizes —
    the phase search's base probabilities, with no netlist build. *)

val original_probabilities :
  Dpa_logic.Netlist.t ->
  input_probs:float array ->
  Dpa_domino.Mapped.t ->
  node_probs:float array ->
  float array
(** [original_probabilities net ~input_probs mapped ~node_probs] reads
    a priced realization of [net] (a domino-ready network) back onto
    [net]'s nodes: an input takes [input_probs], a buffer its fanin's
    value and an inverter 1 − its fanin's; an AND, OR or constant takes
    [node_probs] at its [Pos] slot's root ({!Dpa_domino.Mapped.slot_root}),
    or else 1 − the value at its [Neg] slot's root. NaN for a node the
    block demands in neither polarity (one outside every PO cone). *)

val table_original_probabilities : table -> float array
(** The same for the all-positive block, read off the table's slot root
    probabilities — bit for bit what {!original_probabilities} gives on
    that block built under the table's variable order, and so what
    {!of_mapped} gives on it (the table's order is that block's own,
    extended by PIs it does not reference). *)

val by_cell_type :
  ?input_toggle:(int -> float) ->
  Dpa_domino.Mapped.t ->
  node_probs:float array ->
  (string * int * float) list
(** Power broken down per cell name: [(name, instance count, priced
    power)], sorted by descending power. Boundary inverters appear as
    ["INV(in)"] (priced by [input_toggle], default 0 — pass
    [Model.static_switching ∘ probs] for the analytic model) and
    ["INV(out)"] (priced from the driving node's probability). *)
