(** The paper's pairwise cost function (§4.1).

    For primary outputs [i, j] with transitive-fanin cones [Di, Dj],
    overlap [O(i,j) = |Di∩Dj| / (|Di|+|Dj|)] and average cone signal
    probability [Ai] {e under the current assignment}:

    {v
    K(i+,j+) = |Di|·Ai     + |Dj|·Aj     + ½·O(i,j)·(Ai     + Aj)
    K(i-,j-) = |Di|·(1-Ai) + |Dj|·(1-Aj) + ½·O(i,j)·((1-Ai) + (1-Aj))
    K(i+,j-) = |Di|·Ai     + |Dj|·(1-Aj) + ½·O(i,j)·(Ai     + (1-Aj))
    K(i-,j+) = |Di|·(1-Ai) + |Dj|·Aj     + ½·O(i,j)·((1-Ai) + Aj)
    v}

    [+] means {e retain} the output's current phase and [-] means
    {e invert it} (not absolute polarity). Property 4.1 enters through the
    [(1-A)] terms: inverting an output's phase complements the signal
    probability of every node in its cone. The overlap term prices the
    worst-case duplication of conflicting assignments. *)

type action = Retain | Invert
(** What a candidate move does to an output's {e current} phase —
    relative, not an absolute polarity. *)

type t
(** Assignment-independent cone data of one netlist: cones, sizes,
    pairwise overlaps. *)

val make : Dpa_logic.Netlist.t -> t
(** Precomputes cones, cone sizes and pairwise overlaps (assignment
    independent). *)

val num_outputs : t -> int
(** Primary-output count of the underlying netlist. *)

val cone_size : t -> int -> int
(** [|Di|]: transitive-fanin cone size of output [i], counting the primary
    inputs it reaches ({!Dpa_logic.Cone.of_outputs}). *)

val overlap : t -> int -> int -> float
(** Symmetric; [overlap t i i] is well defined but unused by the search. *)

val averages :
  t -> base_probs:float array -> Dpa_synth.Phase.assignment -> float array
(** [Ai] per output: mean over the cone of the node signal probabilities
    [base_probs] (those of the all-positive implementation, computed
    once; the searches read them off their own price of that block,
    [Measure.base_probs]), complemented when the output's current phase
    is negative — the paper's Property 4.1 approximation. *)

type averager
(** Precomputed per-cone mean of [base_probs]. The mean is assignment
    independent — Property 4.1 only complements it — so a search builds
    this once and rederives {!averages} in O(outputs) per committed move
    instead of re-walking every cone. *)

val averager : t -> base_probs:float array -> averager
(** Builds the per-cone means once; feed to {!averages_of}. *)

val averages_of : t -> averager -> Dpa_synth.Phase.assignment -> float array
(** Identical to {!averages} over the precomputed means. *)

val k : t -> averages:float array -> int -> action -> int -> action -> float
(** [k t ~averages i ai j aj] evaluates the cost of applying actions
    [ai]/[aj] to outputs [i]/[j]. *)

val best_action_pair :
  t -> averages:float array -> int -> int -> action * action * float
(** Minimum-cost combination for a pair (first minimum in the order
    [++ , -- , +- , -+]). *)

val k_tuple : t -> averages:float array -> (int * action) list -> float
(** The paper's §4.1 generalization of [K] to more than a pair: per-output
    size terms plus the ½·O(i,j) duplication term for {e every} pair
    inside the tuple. For two outputs this coincides with {!k}. *)

val best_action_tuple :
  t -> averages:float array -> int list -> action list * float
(** Minimum-cost action vector over all [2^|tuple|] combinations (ties:
    lowest enumeration index, retain = 0 bit). Raises [Invalid_argument]
    on an empty tuple or one longer than 20 outputs. *)

val ranked_action_tuples :
  t -> averages:float array -> int list -> (action list * float) list
(** All [2^|tuple|] action vectors sorted by ascending cost — the
    enumeration order of the paper's "greedily ordered exhaustive
    search". Same bounds as {!best_action_tuple}. *)
