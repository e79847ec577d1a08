(** End-to-end domino synthesis flows (the paper's experimental flow,
    §5): technology-independent minimization, phase assignment (minimum
    area or minimum power), inverter removal, technology mapping, optional
    timing-driven resizing, and power estimation.

    The "MA" flow is the Puri-style optimal/greedy minimum-area
    assignment; the "MP" flow is the paper's power-driven assignment. Both
    are run on the same optimized network so the comparison isolates the
    phase decision, exactly as in Tables 1–2. *)

type timing_config = {
  model : Dpa_timing.Delay.model;
  clock_factor : float;
      (** clock constraint = factor × the MA realization's post-mapping
          {e unsized} critical delay; below 1.0 both realizations must
          resize to close timing — the Table 2 regime *)
}

val default_timing : timing_config
(** Default model, [clock_factor = 0.85]. *)

type realization = {
  assignment : Dpa_synth.Phase.assignment;
  size : int;
      (** standard cells after mapping; under the timed flow, the
          drive-weighted cell count after resizing *)
  power : float;
  critical_delay : float;
  met : bool;  (** timing constraint met (always true untimed) *)
  measurements : int;  (** power evaluations spent finding the assignment *)
  strategy : string;
  degradation : Dpa_power.Engine.degradation;
      (** how this realization's final power number was obtained — fully
          exact unless a resource budget forced the estimation ladder to
          degrade *)
  degraded_measurements : int;
      (** search-time measurements that degraded below exact (0 for MA and
          for unbudgeted runs) *)
}

type result = {
  circuit : string;
  n_pi : int;
  n_po : int;
  ma : realization;
  mp : realization;
  clock : float option;
  area_penalty_pct : float;  (** (mp.size − ma.size) / ma.size × 100 *)
  power_saving_pct : float;  (** (ma.power − mp.power) / ma.power × 100 *)
}

type config = {
  library : Dpa_domino.Library.t;
  input_prob : float;  (** uniform PI signal probability (paper: 0.5) *)
  exhaustive_limit : int;  (** MP exhaustive threshold (and MA's) *)
  pair_limit : int option;  (** greedy candidate cap for wide circuits *)
  timing : timing_config option;  (** [Some _] = the Table 2 flow *)
  seed : int;
  budget : Dpa_power.Engine.budget option;
      (** resource budget for every power estimate in both flows (search
          and final pricing); [None] = exact, unbounded *)
  par : Dpa_util.Par.t option;
      (** domain pool for intra-request parallelism: budgeted shard
          builds in every final pricing and in every phase-search
          candidate ({!Dpa_phase.Optimizer.config}'s [par]). Results are
          bit-identical with or without a pool, at any jobs count (see
          DESIGN.md §11); [None] = fully sequential *)
  cancel : Dpa_util.Cancel.t;
      (** cooperative-cancellation token threaded into every estimate and
          search step; a fired token aborts the flow with
          [Dpa_error.Error (Cancelled _)]. Default
          {!Dpa_util.Cancel.none}. *)
}

val default_config : config
(** Default library, [input_prob = 0.5], [exhaustive_limit = 10], no pair
    cap, untimed, seed 1, no resource budget, no domain pool, no
    cancellation token. *)

val compare_ma_mp : ?config:config -> Dpa_logic.Netlist.t -> result
(** Runs both flows on the (internally re-optimized) network with the
    uniform [config.input_prob] at every input. *)

val compare_ma_mp_probs :
  ?config:config -> input_probs:float array -> Dpa_logic.Netlist.t -> result
(** Same with explicit per-input signal probabilities (overrides
    [config.input_prob]); the entry point the sequential flow uses to
    inject flip-flop steady-state probabilities. *)
