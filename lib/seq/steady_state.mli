(** Exact steady-state analysis of small sequential circuits.

    The partition-based probabilities of {!Partition} trade accuracy for
    tractability (cut flip-flops are assumed at 0.5, flip-flops are
    treated as independent). This module computes the ground truth for
    small state spaces by power iteration on the exact Markov chain over
    flip-flop states, with primary inputs drawn independently each cycle —
    the oracle against which the partition heuristic's accuracy is
    measured (see the bench's partition-accuracy study). *)

type result = {
  state_probs : float array;  (** stationary distribution, index = state
                                  bit-vector (ff 0 = LSB) *)
  ff_probs : float array;  (** marginal P(Q=1) per flip-flop *)
  node_probs : float array;  (** per core node, averaged over the
                                 stationary state distribution *)
  iterations : int;
}

val analyze : input_probs:float array -> Seq_netlist.t -> result
(** Raises [Invalid_argument] beyond 16 flip-flops or 16 primary inputs
    (the chain is built by exhaustive enumeration). Power iteration runs
    from the circuit's reset state until the distribution moves less than
    1e-9 in L1, for at most 10,000 steps. *)
