type result = {
  comb : Flow.result;
  fvs : int list;
  ff_probs : float array;
  supervertices : int;
}

(* every flip-flop's D pin is a block output of the domino core — it
   deserves a phase of its own (an inverter ahead of a flip-flop is as
   legal as one on a primary output) and must survive optimization *)
let core sn =
  let core = Dpa_logic.Netlist.copy (Dpa_seq.Seq_netlist.comb sn) in
  Array.iteri
    (fun k ff ->
      Dpa_logic.Netlist.add_output core (Printf.sprintf "ff%d.d" k) ff.Dpa_seq.Seq_netlist.data)
    (Dpa_seq.Seq_netlist.ffs sn);
  core

let compare_ma_mp ?(config = Flow.default_config) ?(refine = 2) sn =
  let module Trace = Dpa_obs.Trace in
  Trace.with_span "seq_flow.compare"
    ~args:[ ("ffs", Trace.Int (Dpa_seq.Seq_netlist.n_ffs sn)) ]
  @@ fun () ->
  let n_real = Dpa_seq.Seq_netlist.n_real_inputs sn in
  let input_probs = Array.make n_real config.Flow.input_prob in
  let part =
    Trace.with_span "seq_flow.partition" (fun () ->
        Dpa_seq.Partition.probabilities ~refine ~input_probs sn)
  in
  let mfvs =
    Trace.with_span "seq_flow.mfvs" (fun () ->
        Dpa_seq.Mfvs.solve (Dpa_seq.Sgraph.of_seq_netlist sn))
  in
  let core_probs = Array.append input_probs part.Dpa_seq.Partition.ff_probs in
  let comb = Flow.compare_ma_mp_probs ~config ~input_probs:core_probs (core sn) in
  {
    comb;
    fvs = part.Dpa_seq.Partition.fvs;
    ff_probs = part.Dpa_seq.Partition.ff_probs;
    supervertices = List.length mfvs.Dpa_seq.Mfvs.supervertices;
  }
