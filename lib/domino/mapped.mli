(** Technology mapping of an inverter-free block onto the domino library.

    Gates wider than the library limits are decomposed into balanced trees
    of legal cells (a 10-input AND under a 4-wide library becomes two
    levels of AND cells). The result — the {e mapped block} — is what the
    paper's "Size" columns count, what the power models price, and what the
    simulator and timing analysis run on. *)

type t

val map : ?library:Library.t -> Dpa_synth.Inverterless.t -> t
(** Default library: {!Library.default}. *)

val cell_tree : Library.t -> add:(Dpa_logic.Gate.t -> int) -> Dpa_logic.Gate.t -> int
(** The cell tree {!map} builds for one block AND/OR gate over fanin
    values: [add] is called once per cell, children before parents, with
    the cell's gate over the values [add] returned for its children (or
    over fanins); the result is the root's value — the fanin itself for
    a one-input gate, which needs no cell. Raises [Invalid_argument] for
    other gates. *)

val absorbs : Library.t -> bool
(** Whether {!map} absorbs AND terms into compound cells under this
    library. Absorption reads the block's fanout counts, so a gate's
    cells then depend on the rest of the block. *)

val net : t -> Dpa_logic.Netlist.t
(** Width-limited monotone AND/OR network; inputs are PI literals, outputs
    carry original PO names (negative-phase POs complemented, as in
    {!Dpa_synth.Inverterless.block}). *)

val library : t -> Library.t

val assignment : t -> Dpa_synth.Phase.assignment

val literals : t -> (int * Dpa_synth.Inverterless.polarity) array
(** Per block-input position: (original PI position, polarity). *)

val slot_root : t -> int -> int
(** The node realizing slot [s] of the network the block was realized
    from ({!Dpa_synth.Inverterless.slot_nodes}' indexing): the root of
    the slot's cell tree, or its literal or constant; [-1] for a slot
    the block does not demand. *)

val cell_of_node : t -> int -> Cell.t option
(** The library cell a node maps to; [None] for inputs, constants and
    AND gates absorbed into a consuming compound cell. *)

val is_absorbed : t -> int -> bool
(** True for AND nodes folded into a compound cell's pulldown network:
    they remain in the netlist for evaluation but are not cells — no
    precharge node, no switching power, no gate delay of their own. *)

val input_inverters : t -> int
(** Static inverters feeding complemented PI literals. *)

val output_inverters : t -> int
(** Static inverters on negative-phase outputs. *)

val dynamic_cells : t -> int

val size : t -> int
(** Total standard cells = dynamic cells + boundary inverters — the
    paper's "Size" column. *)

val drive : t -> int -> float
(** Drive-strength multiplier of a node's cell (1.0 after mapping); the
    timing-driven resizing step scales it, and effective capacitance is
    [C_cell × drive]. *)

val set_drive : t -> int -> float -> unit

val eval_original_outputs : t -> bool array -> bool array
(** Functional oracle: original-PI vector in, original-PO values out. *)
