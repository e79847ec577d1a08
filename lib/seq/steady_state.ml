module Netlist = Dpa_logic.Netlist

type result = {
  state_probs : float array;
  ff_probs : float array;
  node_probs : float array;
  iterations : int;
}

(* power iteration stops once the distribution moves less than this in L1,
   or after [max_iterations] steps *)
let tolerance = 1e-9

let max_iterations = 10_000

let analyze ~input_probs sn =
  let n_ff = Seq_netlist.n_ffs sn in
  let n_in = Seq_netlist.n_real_inputs sn in
  if n_ff > 16 || n_in > 16 || n_ff + n_in > 20 then
    invalid_arg "Steady_state.analyze: state or input space too large to enumerate";
  if Array.length input_probs <> n_in then
    invalid_arg "Steady_state.analyze: input_probs length mismatch";
  let core = Seq_netlist.comb sn in
  let flops = Seq_netlist.ffs sn in
  let n_states = 1 lsl n_ff in
  let n_minterms = 1 lsl n_in in
  let minterm_prob = Array.make n_minterms 1.0 in
  for m = 0 to n_minterms - 1 do
    for k = 0 to n_in - 1 do
      let p = input_probs.(k) in
      minterm_prob.(m) <-
        minterm_prob.(m) *. (if (m lsr k) land 1 = 1 then p else 1.0 -. p)
    done
  done;
  let core_vec = Array.make (n_in + n_ff) false in
  let eval state m =
    for k = 0 to n_in - 1 do
      core_vec.(k) <- (m lsr k) land 1 = 1
    done;
    for k = 0 to n_ff - 1 do
      core_vec.(n_in + k) <- (state lsr k) land 1 = 1
    done;
    Dpa_logic.Eval.all_nodes core core_vec
  in
  (* dense successor table: next.(state).(minterm) *)
  let next = Array.make_matrix n_states n_minterms 0 in
  for s = 0 to n_states - 1 do
    for m = 0 to n_minterms - 1 do
      let values = eval s m in
      let s' = ref 0 in
      Array.iteri
        (fun k ff -> if values.(ff.Seq_netlist.data) then s' := !s' lor (1 lsl k))
        flops;
      next.(s).(m) <- !s'
    done
  done;
  (* lazy power iteration: T' = (T + I)/2 keeps the stationary
     distribution and converges even for periodic chains (a one-hot ring
     is periodic) *)
  let reset =
    Array.to_list (Array.mapi (fun k ff -> if ff.Seq_netlist.init then 1 lsl k else 0) flops)
    |> List.fold_left ( lor ) 0
  in
  let dist = Array.make n_states 0.0 in
  dist.(reset) <- 1.0;
  let iterations = ref 0 in
  let delta = ref infinity in
  while !delta > tolerance && !iterations < max_iterations do
    incr iterations;
    let dist' = Array.make n_states 0.0 in
    for s = 0 to n_states - 1 do
      if dist.(s) > 0.0 then begin
        dist'.(s) <- dist'.(s) +. (0.5 *. dist.(s));
        for m = 0 to n_minterms - 1 do
          let s' = next.(s).(m) in
          dist'.(s') <- dist'.(s') +. (0.5 *. dist.(s) *. minterm_prob.(m))
        done
      end
    done;
    delta := 0.0;
    for s = 0 to n_states - 1 do
      delta := !delta +. Float.abs (dist'.(s) -. dist.(s));
      dist.(s) <- dist'.(s)
    done
  done;
  let ff_probs = Array.make n_ff 0.0 in
  for s = 0 to n_states - 1 do
    if dist.(s) > 0.0 then
      for k = 0 to n_ff - 1 do
        if (s lsr k) land 1 = 1 then ff_probs.(k) <- ff_probs.(k) +. dist.(s)
      done
  done;
  let node_probs = Array.make (Netlist.size core) 0.0 in
  for s = 0 to n_states - 1 do
    if dist.(s) > 1e-15 then
      for m = 0 to n_minterms - 1 do
        let w = dist.(s) *. minterm_prob.(m) in
        if w > 0.0 then begin
          let values = eval s m in
          Array.iteri (fun i v -> if v then node_probs.(i) <- node_probs.(i) +. w) values
        end
      done
  done;
  { state_probs = dist; ff_probs; node_probs; iterations = !iterations }
