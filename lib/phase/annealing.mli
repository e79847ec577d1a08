(** Simulated-annealing phase search.

    The paper notes its pairwise heuristic "can be extended to capture a
    greater degree of interaction between phase assignments"; annealing
    over single-output flips is that extension — it explores multi-output
    interactions the pairwise cost cannot see, at the price of many more
    measurements. Used by the ablation bench as an upper-effort reference
    point. *)

type params = {
  steps : int;  (** proposal count *)
  initial_temperature : float;  (** in units of measured power *)
  cooling : float;  (** geometric factor per step, in (0,1) *)
}

val default_params : params
(** 400 steps, T₀ = 5% of the initial power, cooling 0.985. *)

type result = {
  assignment : Dpa_synth.Phase.assignment;
  power : float;
  size : int;
  accepted : int;
}

val run : ?params:params -> Dpa_util.Rng.t -> Measure.t -> num_outputs:int -> result
(** Starts from the all-positive assignment. Tracks and returns the best
    assignment ever visited (not merely the final state). *)
