(** End-to-end flow for sequential domino designs.

    The paper's full pipeline (Fig. 6): build the s-graph, cut the
    enhanced-MFVS feedback set, propagate steady-state flip-flop
    probabilities through the acyclic remainder, then run the
    minimum-area vs minimum-power comparison on the combinational core
    with those probabilities injected at the flip-flop pseudo-inputs. *)

type result = {
  comb : Flow.result;  (** the MA/MP comparison of the next-state/output logic *)
  fvs : int list;  (** flip-flops cut into pseudo-inputs *)
  ff_probs : float array;  (** steady Q probability per flip-flop *)
  supervertices : int;  (** symmetry groups formed on the s-graph *)
}

val core : Dpa_seq.Seq_netlist.t -> Dpa_logic.Netlist.t
(** The combinational core the flow prices: a copy of
    {!Dpa_seq.Seq_netlist.comb} with flip-flop [k]'s D pin added as
    output ["ff<k>.d"], after the real outputs. *)

val compare_ma_mp :
  ?config:Flow.config -> ?refine:int -> Dpa_seq.Seq_netlist.t -> result
(** Real primary inputs take [config.input_prob]; cut flip-flops seed at
    0.5 and are optionally [refine]d to a fixpoint (default 2 passes). *)
