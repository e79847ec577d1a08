module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate

type measurement = {
  zero_delay : float;
  with_glitches : float;
  glitch_ratio : float;
  cycles : int;
}

let measure ?(cycles = Compiled.default_cycles) rng ~input_probs net =
  if cycles <= 0 then invalid_arg "Static_sim.measure: cycles must be positive";
  let ins = Netlist.inputs net in
  if Array.length input_probs <> Array.length ins then
    invalid_arg "Static_sim.measure: input_probs length mismatch";
  let n = Netlist.size net in
  let fanouts = Dpa_logic.Topo.fanouts net in
  let is_gate = Array.make n false in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.Input | Gate.Const _ -> ()
      | Gate.Buf _ | Gate.Not _ | Gate.And _ | Gate.Or _ | Gate.Xor _ -> is_gate.(i) <- true)
    net;
  (* settle the network from the initial vector *)
  let pi_vec = Array.map (fun p -> Dpa_util.Rng.bernoulli rng p) input_probs in
  let values = ref (Dpa_logic.Eval.all_nodes net pi_vec) in
  let zero_delay = ref 0 and glitchy = ref 0 in
  (* propagate one node's new value through its transitive fanout,
     recomputing gates immediately (order-accurate hazard model) and
     counting every value change *)
  let propagate start_values =
    let current = start_values in
    let rec touch i =
      Array.iter
        (fun reader ->
          let v = Gate.eval (Netlist.gate net reader) (fun x -> current.(x)) in
          if v <> current.(reader) then begin
            current.(reader) <- v;
            incr glitchy;
            touch reader
          end)
        fanouts.(i)
    in
    touch
  in
  for _ = 2 to cycles do
    let next_vec = Array.map (fun p -> Dpa_util.Rng.bernoulli rng p) input_probs in
    (* changed inputs arrive in a random order *)
    let changed = ref [] in
    Array.iteri (fun k id -> if next_vec.(k) <> pi_vec.(k) then changed := (k, id) :: !changed) ins;
    let order = Array.of_list !changed in
    Dpa_util.Rng.shuffle rng order;
    let current = Array.copy !values in
    let touch = propagate current in
    Array.iter
      (fun (k, id) ->
        current.(id) <- next_vec.(k);
        touch id)
      order;
    (* Final settled values must equal the zero-delay evaluation: the
       network is acyclic and every change re-touches its readers, so
       quiescence is the unique fixpoint [Eval.all_nodes] computes. *)
    let settled = Dpa_logic.Eval.all_nodes net next_vec in
    assert (settled = current);
    Array.iteri
      (fun i v -> if is_gate.(i) && v <> !values.(i) then incr zero_delay)
      settled;
    values := settled;
    Array.blit next_vec 0 pi_vec 0 (Array.length pi_vec)
  done;
  let c = float_of_int cycles in
  let zd = float_of_int !zero_delay /. c in
  let gl = float_of_int !glitchy /. c in
  {
    zero_delay = zd;
    with_glitches = gl;
    glitch_ratio = (if zd = 0.0 then 1.0 else gl /. zd);
    cycles;
  }
