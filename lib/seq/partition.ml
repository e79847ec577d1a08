module Netlist = Dpa_logic.Netlist
module Robdd = Dpa_bdd.Robdd

type t = {
  fvs : int list;
  ff_probs : float array;
  node_probs : float array;
  iterations : int;
}

(* Topological order of the non-FVS flip-flops in the cut s-graph. *)
let ff_topo_order sn fvs =
  let g = Sgraph.of_seq_netlist sn in
  List.iter (fun v -> if Sgraph.is_alive g v then Sgraph.delete g v) fvs;
  let alive = Sgraph.alive_vertices g in
  let indeg = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace indeg v (List.length (Sgraph.pred g v))) alive;
  let queue = Queue.create () in
  List.iter (fun v -> if Hashtbl.find indeg v = 0 then Queue.add v queue) alive;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    List.iter
      (fun s ->
        let d = Hashtbl.find indeg s - 1 in
        Hashtbl.replace indeg s d;
        if d = 0 then Queue.add s queue)
      (Sgraph.succ g v)
  done;
  assert (List.length !order = List.length alive);
  List.rev !order

let probabilities ?(symmetry = true) ?(cut_prob = 0.5) ?(refine = 0) ~input_probs sn =
  Dpa_obs.Trace.with_span "seq.partition"
    ~args:
      [
        ("ffs", Dpa_obs.Trace.Int (Seq_netlist.n_ffs sn));
        ("refine", Dpa_obs.Trace.Int refine);
      ]
  @@ fun () ->
  let core = Seq_netlist.comb sn in
  let n_real = Seq_netlist.n_real_inputs sn in
  if Array.length input_probs <> n_real then
    invalid_arg "Partition.probabilities: input_probs must cover the real inputs";
  let n_ff = Seq_netlist.n_ffs sn in
  let flops = Seq_netlist.ffs sn in
  let { Mfvs.fvs; _ } = Mfvs.solve ~symmetry (Sgraph.of_seq_netlist sn) in
  let topo = ff_topo_order sn fvs in
  (* BDDs over all core inputs (real PIs and Q pseudo-inputs) are built
     once; only the input probabilities change between passes. *)
  let built = Dpa_bdd.Build.of_netlist core in
  let m = Dpa_bdd.Build.manager built and roots = Dpa_bdd.Build.roots built in
  let probs = Array.make (Netlist.num_inputs core) 0.5 in
  Array.blit input_probs 0 probs 0 n_real;
  let ff_probs = Array.make n_ff cut_prob in
  let prob_of_node id =
    Robdd.probability m
      (Array.map (fun pos -> probs.(pos)) (Dpa_bdd.Build.order built))
      roots.(id)
  in
  let pass () =
    Array.blit ff_probs 0 probs n_real n_ff;
    List.iter
      (fun v ->
        ff_probs.(v) <- prob_of_node flops.(v).Seq_netlist.data;
        probs.(n_real + v) <- ff_probs.(v))
      topo
  in
  pass ();
  let iterations = ref 0 in
  for _ = 1 to refine do
    incr iterations;
    (* feed every cut flip-flop its computed D probability and repropagate *)
    List.iter (fun v -> ff_probs.(v) <- prob_of_node flops.(v).Seq_netlist.data) fvs;
    pass ()
  done;
  let node_probs = Dpa_bdd.Build.node_probabilities built ~input_probs:probs in
  { fvs; ff_probs = Array.copy ff_probs; node_probs; iterations = !iterations }
