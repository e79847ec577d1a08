(** Technology-independent optimization (paper §3, flow step 1).

    Rebuilds the cone of every primary output through the structurally
    hashed {!Dpa_logic.Builder}: constant propagation, double-inverter and
    buffer elimination, fanin canonicalization, common-subexpression
    sharing, and dead-logic removal. XOR is decomposed into AND/OR/NOT
    (mandatory before domino phase assignment, which needs a
    monotone-decomposable network). *)

val optimize : Dpa_logic.Netlist.t -> Dpa_logic.Netlist.t
(** [optimize t] preserves the primary input interface (declaration order,
    names, including unused inputs) and the primary output names/order. *)

val is_domino_ready : Dpa_logic.Netlist.t -> bool
(** True when the network contains no XOR (the only gate the inverterless
    transform cannot dualize). *)
