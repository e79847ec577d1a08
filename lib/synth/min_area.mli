(** Minimum-area phase assignment — the paper's "MA" baseline, i.e. the
    output-phase algorithm of Puri, Bjorksten & Rosser (ICCAD'96) that
    minimizes logic duplication with no regard to switching activity.

    Cost of an assignment = {!Inverterless.stats}.area of its realization
    (domino gates + boundary inverters), which {!area_of} computes by
    realizing the block. The searches never realize a candidate: they
    index, once per netlist, the AND/OR gates (in each polarity) and the
    negative PI literals each PO demands in each phase — a flip leaves
    every other PO's demand untouched (the paper's Property 4.1) — and
    keep the area as the size of the union of the current POs' demands,
    by reference counts per gate and literal, plus the negative POs. A flip then
    costs the size of the flipped PO's cone. *)

val area_of : Dpa_logic.Netlist.t -> Phase.assignment -> int
(** The definition of area: realizes the block. *)

type index
(** One netlist's per-PO demands and the area of a current assignment. *)

val index : Dpa_logic.Netlist.t -> Phase.assignment -> index
(** The netlist's index at an assignment. Raises [Invalid_argument] when
    the assignment's length differs from the output count or a PO's cone
    contains XOR. *)

val area : index -> int
(** [area_of] the netlist at the current assignment. *)

val flip : index -> int -> unit
(** Flips one output's phase in the current assignment. *)

val exhaustive : Dpa_logic.Netlist.t -> Phase.assignment
(** Optimal over all [2^n] assignments (first minimum in
    {!Phase.enumerate} order). Raises [Invalid_argument] beyond 24
    outputs. *)

val local_search : ?start:Phase.assignment -> Dpa_logic.Netlist.t -> Phase.assignment
(** Steepest-descent single-output flips from [start] (default all
    positive) until no flip reduces area; of equal best flips, the
    lowest output wins. Raises [Invalid_argument] when [start]'s length
    differs from the output count. *)

val best : ?exhaustive_limit:int -> Dpa_logic.Netlist.t -> Phase.assignment
(** [exhaustive] when the output count is at most [exhaustive_limit]
    (default 10, the threshold of [Flow], [Optimizer] and
    [Timing_aware]), otherwise [local_search] — mirroring the paper, which
    ran the optimal algorithm on its (small-PO-count) public circuits.

    The searches raise [Invalid_argument] if a PO's cone contains XOR
    (run {!Opt.optimize} first). *)
