module Netlist = Dpa_logic.Netlist
module Mapped = Dpa_domino.Mapped
module Inverterless = Dpa_synth.Inverterless
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics
module Clock = Dpa_obs.Clock

type activity = {
  node_probs : float array;
  input_toggles : float array;
  cycles : int;
  fire_counts : int array;
}

(* eager registration — forcing a [lazy] cell from two domains races *)
let g_compiled_cps =
  Metrics.gauge ~help:"compiled simulator throughput, simulated cycles per second"
    "sim.compiled.cycles_per_sec"

let literal_vector lits pi_vec =
  Array.map
    (fun (opos, pol) ->
      match pol with
      | Inverterless.Pos -> pi_vec.(opos)
      | Inverterless.Neg -> not pi_vec.(opos))
    lits

let activity_of_counts ~cycles ~fire_counts ~pi_toggles =
  let fc = float_of_int cycles in
  let node_probs = Array.map (fun c -> float_of_int c /. fc) fire_counts in
  let input_toggles = Array.map (fun c -> float_of_int c /. fc) pi_toggles in
  { node_probs; input_toggles; cycles; fire_counts }

let measure ?(cycles = Compiled.default_cycles) ?(cancel = Dpa_util.Cancel.none) rng
    ~input_probs mapped =
  if cycles <= 0 then invalid_arg "Simulator.measure: cycles must be positive";
  let prog = Compiled.of_block mapped in
  Trace.with_span "sim.run"
    ~args:[ ("cycles", Trace.Int cycles); ("nodes", Trace.Int (Compiled.n_nodes prog)) ]
  @@ fun () ->
  let since = Clock.now_ns () in
  let counts = Compiled.measure_counts ~cycles ~cancel rng ~input_probs prog in
  let dt = Clock.elapsed_ns ~since in
  if dt > 0 then Metrics.set g_compiled_cps (float_of_int cycles *. 1e9 /. float_of_int dt);
  activity_of_counts ~cycles ~fire_counts:counts.Compiled.fire
    ~pi_toggles:counts.Compiled.source_toggles

let measure_reference ?(cycles = Compiled.default_cycles) rng ~input_probs mapped =
  if cycles <= 0 then invalid_arg "Simulator.measure_reference: cycles must be positive";
  let net = Mapped.net mapped in
  let lits = Mapped.literals mapped in
  let fire_counts = Array.make (Netlist.size net) 0 in
  let pi_toggles = Array.make (Array.length input_probs) 0 in
  let prev_pi = ref None in
  for _ = 1 to cycles do
    let pi_vec = Array.map (fun p -> Dpa_util.Rng.bernoulli rng p) input_probs in
    (match !prev_pi with
    | Some prev ->
      Array.iteri (fun k b -> if b <> prev.(k) then pi_toggles.(k) <- pi_toggles.(k) + 1) pi_vec
    | None -> ());
    prev_pi := Some pi_vec;
    let values = Dpa_logic.Eval.all_nodes net (literal_vector lits pi_vec) in
    Array.iteri (fun i v -> if v then fire_counts.(i) <- fire_counts.(i) + 1) values
  done;
  activity_of_counts ~cycles ~fire_counts ~pi_toggles

type evaluate_trace = {
  rises : int array;
  final : bool array;
}

let event_evaluate rng mapped pi_vec =
  let net = Mapped.net mapped in
  let lits = Mapped.literals mapped in
  let n = Netlist.size net in
  let fanouts = Dpa_logic.Topo.fanouts net in
  (* Precharged state: every signal reads 0 at the buffered outputs. *)
  let value = Array.make n false in
  let rises = Array.make n 0 in
  (* Constants that are true "arrive" immediately. *)
  let queue = Queue.create () in
  let raise_node i =
    if not value.(i) then begin
      value.(i) <- true;
      rises.(i) <- rises.(i) + 1;
      Queue.add i queue
    end
  in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Dpa_logic.Gate.Const true -> raise_node i
      | Dpa_logic.Gate.Const false | Dpa_logic.Gate.Input | Dpa_logic.Gate.Buf _
      | Dpa_logic.Gate.Not _ | Dpa_logic.Gate.And _ | Dpa_logic.Gate.Or _
      | Dpa_logic.Gate.Xor _ -> ())
    net;
  let literal_values = literal_vector lits pi_vec in
  (* True literals arrive in a random order; false literals never rise. *)
  let arriving = ref [] in
  Array.iteri
    (fun pos id -> if literal_values.(pos) then arriving := id :: !arriving)
    (Netlist.inputs net);
  let order = Array.of_list !arriving in
  Dpa_util.Rng.shuffle rng order;
  let propagate () =
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      Array.iter
        (fun reader ->
          if not value.(reader) then begin
            let fires =
              match Netlist.gate net reader with
              | Dpa_logic.Gate.And xs -> Array.for_all (fun x -> value.(x)) xs
              | Dpa_logic.Gate.Or xs -> Array.exists (fun x -> value.(x)) xs
              | Dpa_logic.Gate.Input | Dpa_logic.Gate.Const _ | Dpa_logic.Gate.Buf _
              | Dpa_logic.Gate.Not _ | Dpa_logic.Gate.Xor _ -> false
            in
            if fires then raise_node reader
          end)
        fanouts.(i)
    done
  in
  propagate ();
  Array.iter
    (fun id ->
      raise_node id;
      propagate ())
    order;
  { rises; final = Array.copy value }
