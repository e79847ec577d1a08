(** Inverter removal by phase assignment and DeMorgan's law (paper §3,
    Figs. 3–5).

    Given a technology-independent network (no XOR) and a phase for every
    primary output, produce the inverter-free {e domino block}: a monotone
    AND/OR network over literals of the original primary inputs. Internal
    inverters are pushed to the boundary — complemented primary inputs
    become static input inverters, negative-phase outputs keep one static
    output inverter. A node demanded in both polarities is implemented
    twice (its DeMorgan dual is separate logic): this is exactly the
    "trapped inverter" duplication cost of conflicting phases (Fig. 4). *)

type polarity = Pos | Neg

type t

val realize : Dpa_logic.Netlist.t -> Phase.assignment -> t
(** Raises [Invalid_argument] if the network contains XOR gates or the
    assignment length differs from the output count. *)

val demand :
  Dpa_logic.Netlist.t ->
  Phase.assignment ->
  emit:(int -> polarity -> Dpa_logic.Gate.t -> int) ->
  int array * int array
(** The walk {!realize} runs. Each PO demands its driver in its phase;
    an inverter flips the demanded polarity and a buffer passes it on,
    so neither is emitted. Every other demanded (original node,
    polarity) pair — a {e slot} — is emitted once, after its fanins, in
    the block's node order: [emit i pol g] gets the slot's block gate
    [g] — [Input] for a literal, the constant with the polarity applied,
    or an AND/OR (its DeMorgan dual in [Neg]) over the values [emit]
    returned for the fanin slots — and returns the slot's value, which
    must be non-negative. Returns the per-slot values (index [2i] for
    [Pos], [2i+1] for [Neg]; [-1] where never demanded; an inverter's or
    buffer's slot holds its fanin's value) and the value each PO
    resolves to. Raises like {!realize}. *)

val block : t -> Dpa_logic.Netlist.t
(** The inverter-free network. Its inputs are literals: one per (original
    PI, polarity) actually used, named after the PI with a ["~"] prefix for
    complemented literals. Its outputs carry the original PO names; a
    negative-phase PO's block output is the complement of the PO value. *)

val phases : t -> Phase.assignment

val block_literal : t -> pi_position:int -> polarity -> int option
(** Block input id serving the given literal, if that literal is used.
    [pi_position] indexes the {e original} network's inputs. *)

val literals : t -> (int * polarity) array
(** Per block-input position: the (original PI position, polarity) literal
    it carries, in block-input declaration order. *)

val slot_nodes : t -> int array
(** Per slot, indexed as {!demand} indexes them ([2i] for original node
    [i] in [Pos], [2i+1] in [Neg]): the block node realizing it — an
    inverter's or buffer's slot holds its fanin's node — or [-1] where
    never demanded. A fresh array. *)

val original_of_block_node : t -> int -> (int * polarity) option
(** Which (original node, polarity) a block node implements. [None] for
    literals, ids outside the block, and nodes without an original
    counterpart (does not occur today, reserved for mapper-introduced
    nodes). Linear in the original network's size. *)

(** Cost summary. [area] is the paper-level pre-mapping proxy:
    domino gates + static inverters at both boundaries. *)
type stats = {
  domino_gates : int;
  input_inverters : int;
  output_inverters : int;
  duplicated_nodes : int;  (** original gates realized in both polarities *)
  area : int;
}

val stats : t -> stats

val eval_original_outputs : t -> bool array -> bool array
(** Evaluates the block on a vector of {e original} primary-input values
    (complementing literals and re-inverting negative-phase outputs) and
    returns the original primary-output values — the functional
    equivalence oracle used by the tests. *)
