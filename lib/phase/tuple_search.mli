(** The paper's §4.1 extension: "this heuristic can be extended to capture
    a greater degree of interaction between phase assignments by extending
    the definition of the cost function K to more than a pair of outputs.
    If the cost function is extended to all of the primary outputs in the
    circuit, the heuristic essentially reduces to a greedily ordered
    exhaustive search."

    [run ~k] generalizes {!Greedy} from pairs to k-subsets: every
    candidate tuple is scored by the best of its [2^k] action vectors
    under {!Cost.k_tuple}; the global minimum is synthesized, measured
    and committed only on improvement; the tuple leaves the candidate set
    either way. [k = 2] recovers the paper's pairwise heuristic;
    [k = num_outputs] is the greedily ordered exhaustive search. *)

type result = {
  assignment : Dpa_synth.Phase.assignment;
  power : float;
  size : int;
  initial_power : float;
  commits : int;
  tuples_considered : int;
}

val run :
  ?tuple_limit:int ->
  ?vectors_per_tuple:int ->
  k:int ->
  Measure.t ->
  cost:Cost.t ->
  result
(** The search starts from the all-positive assignment. Base
    probabilities are {!Measure.base_probs}, as in {!Greedy.run}.
    [tuple_limit] caps the candidate set to the tuples with the largest
    predicted gain (default 5000 — [C(n,k)] grows quickly).
    [vectors_per_tuple] (default 1) measures that many K-ranked action
    vectors of the chosen tuple instead of only the argmin — with
    [k = num_outputs] and a large value this is literally the greedily
    ordered exhaustive search. Raises [Invalid_argument] unless
    [2 ≤ k ≤ num_outputs]. *)
