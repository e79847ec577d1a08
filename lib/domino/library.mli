(** Domino cell library: width limits, capacitance and penalty models.

    The paper's experiments use [C_i = 1] and [P_i = 0] ("we effectively
    determined the phase assignment that minimized the total switching
    activity"); both hooks are kept configurable for the penalty ablation
    study. We read the paper's power expression [Σ S_i·C_i·P_i] as
    [Σ S_i·C_i·(1 + P_i)], the only reading under which [P_i = 0] yields
    pure switching activity rather than zero. *)

type t = {
  max_and_width : int;  (** series-stack limit of dynamic AND cells *)
  max_or_width : int;  (** parallel-leg limit of dynamic OR cells *)
  compound_legs : int;
      (** maximum pulldown legs of compound (OR-of-AND) cells; 0 disables
          compound mapping *)
  capacitance : Cell.t -> float;  (** output load [C_i] *)
  penalty : Cell.t -> float;  (** gate-type surcharge [P_i] ≥ 0 *)
}

val default : t
(** AND up to 4 wide, OR up to 8 wide, no compound cells, [C_i = 1],
    [P_i = 0] — the paper's experimental configuration. *)

val with_compound : t -> t
(** Enables compound OR-of-AND cells with up to 4 pulldown legs. The
    mapper then absorbs single-fanout AND terms into the
    consuming OR's pulldown network — one dynamic node instead of
    several, eliminating the absorbed terms' precharge power. *)

val with_series_penalty : ?per_stage:float -> t -> t
(** Penalizes dynamic cells by [per_stage × (series_transistors - 1)]
    (default 0.25): the "performance penalty for an excessive number of
    AND gates" knob of §4.2, used in the ablation bench. *)

val cell_of_gate : t -> Dpa_logic.Gate.t -> Cell.t
(** Library cell implementing a (width-limited) AND/OR gate. Raises
    [Invalid_argument] for non-AND/OR gates or widths over the limit. *)

val legal_width : t -> Cell.kind -> int -> bool
