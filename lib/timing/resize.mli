(** Timing-driven cell resizing — our substitute for the paper's
    "transistor resizing (after technology mapping) in order to meet
    realistic timing constraints" (Table 2 flow).

    Iteratively upsizes every dynamic cell on the current critical path
    (multiplying its drive, which divides its delay and multiplies its
    effective capacitance — hence the power cost of timing closure) until
    the clock constraint is met or the drive cap is reached. The block's
    drives are modified in place. *)

type result = {
  met : bool;
  iterations : int;
  initial_delay : float;
  final_delay : float;
  upsized_cells : int;  (** cells whose final drive exceeds 1 *)
}

val meet :
  ?model:Delay.model -> ?max_drive:float -> clock:float -> Dpa_domino.Mapped.t -> result
(** Each round multiplies the critical cells' drives by 1.25, up to
    [max_drive] (default 8), for at most 64 rounds. *)
