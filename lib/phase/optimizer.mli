(** Top-level minimum-power phase assignment (the "MP" flow of the
    paper's Fig. 6): search exhaustively when the output count permits,
    otherwise with the greedy pairwise heuristic (optionally refined by
    annealing), whose base signal probabilities are the measure's own
    price of the all-positive block ({!Measure.base_probs}). *)

type strategy =
  | Auto  (** exhaustive up to [exhaustive_limit] outputs, else greedy *)
  | Exhaustive
  | Greedy
  | Multi_start of int
      (** best of N greedy runs — one from all-positive, the rest from
          seeded random initial assignments; the measurement cache is
          shared so repeated candidates cost nothing *)
  | Annealing of Annealing.params

type config = {
  library : Dpa_domino.Library.t;
  input_probs : float array;  (** per primary input of the network *)
  strategy : strategy;
  exhaustive_limit : int;  (** [Auto] threshold, default 10 *)
  pair_limit : int option;  (** greedy candidate cap, default none *)
  seed : int;  (** randomized strategies *)
  budget : Dpa_power.Engine.budget option;
      (** resource budget for every estimate in the search (per-candidate
          pricing, and with it the base probabilities); [None] = exact,
          unbounded *)
  par : Dpa_util.Par.t option;
      (** domain pool for budgeted candidate pricing: a search prices
          one candidate at a time and the pool spreads that candidate's
          shards, except exhaustive search, which prices its enumeration
          across the pool ({!Measure.prefetch}). Never changes any
          measured value or the search trajectory — the result is
          bit-identical with or without it, at any jobs count. *)
  cancel : Dpa_util.Cancel.t;
      (** cooperative-cancellation token polled on every measurement; a
          fired token aborts the search with
          [Dpa_error.Error (Cancelled _)]. Default {!Dpa_util.Cancel.none}
          (never fires, zero overhead). *)
}

val default_config : input_probs:float array -> config

type result = {
  assignment : Dpa_synth.Phase.assignment;
  power : float;
  size : int;
  measurements : int;  (** distinct assignments synthesized and priced *)
  strategy_used : string;
  degraded_measurements : int;
      (** measurements that fell below fully exact (0 without a budget) *)
  degradation : Dpa_power.Engine.degradation option;
      (** worst per-candidate degradation seen, [None] when all exact *)
}

val minimize_power : config -> Dpa_logic.Netlist.t -> result
(** The netlist must be domino-ready (run {!Dpa_synth.Opt.optimize}
    first). *)

val measure : config -> Dpa_logic.Netlist.t -> Measure.t
(** The measure {!minimize_power} prices candidates with: [config]'s
    library, budget, cancellation token, pool and input probabilities. *)

val minimize_power_with : Measure.t -> config -> Dpa_logic.Netlist.t -> result
(** {!minimize_power} pricing with [measure config net], made and
    possibly primed ({!Measure.prime}) by the caller, who can then read
    the search's prices ({!Measure.priced}). *)
