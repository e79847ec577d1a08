(** The paper's greedy pairwise phase-assignment heuristic (§4.1, steps
    1–7):

    1. start from an arbitrary initial assignment;
    2. for every remaining pair of primary outputs evaluate the four
       action combinations under the cost function [K];
    3. take the pair/combination of global minimum cost;
    4–5. synthesize that candidate and measure its power;
    6. commit iff the measured power decreased, and remove the pair from
       the candidate set either way;
    7. repeat until the candidate set is empty.

    Retain/retain winners change nothing and are removed without paying
    for a measurement; when every remaining pair's best combination is
    retain/retain the search terminates early (no commit can change the
    averages any more). *)

type initial = [ `All_positive | `Random of Dpa_util.Rng.t ]

type step = {
  pair : int * int;
  actions : Cost.action * Cost.action;
  predicted_cost : float;
  measured_power : float option;  (** [None] when no synthesis was needed *)
  committed : bool;
}

type result = {
  assignment : Dpa_synth.Phase.assignment;
  power : float;
  size : int;
  initial_power : float;
  commits : int;
  steps : step list;  (** chronological *)
}

val run : ?initial:initial -> ?pair_limit:int -> Measure.t -> cost:Cost.t -> result
(** The base probabilities feeding {!Cost.averages} — the node signal
    probabilities of the all-positive implementation — are
    {!Measure.base_probs}, read off the measure's own price of the
    all-positive block after the initial assignment is measured (the
    same block when the search starts all-positive). [pair_limit] caps
    the candidate set to the pairs with the largest predicted gain (an
    engineering knob for very wide circuits; unset = the paper's full
    pair set). *)
