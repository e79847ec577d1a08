module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Int_table = Dpa_util.Int_table

type t = {
  manager : Robdd.manager;
  roots : Robdd.node array;
  order : int array;
}

let build_in ~order t m =
  let ins = Netlist.inputs t in
  (* input node id → level *)
  let level_of_input = Int_table.create ~capacity:(2 * Array.length ins) () in
  Array.iteri (fun lvl pos -> Int_table.replace level_of_input ins.(pos) lvl) order;
  let roots = Array.make (Netlist.size t) Robdd.bdd_false in
  let reduce_nary apply xs neutral =
    Array.fold_left (fun acc x -> apply m acc roots.(x)) neutral xs
  in
  Netlist.iter_nodes
    (fun i g ->
      roots.(i) <-
        (match g with
        | Gate.Input -> Robdd.var m (Int_table.find level_of_input i)
        | Gate.Const b -> if b then Robdd.bdd_true else Robdd.bdd_false
        | Gate.Buf x -> roots.(x)
        | Gate.Not x -> Robdd.neg m roots.(x)
        | Gate.And xs -> reduce_nary Robdd.apply_and xs Robdd.bdd_true
        | Gate.Or xs -> reduce_nary Robdd.apply_or xs Robdd.bdd_false
        | Gate.Xor (a, b) -> Robdd.apply_xor m roots.(a) roots.(b)))
    t;
  { manager = m; roots; order }

let fresh_manager ~order t =
  let ins = Netlist.inputs t in
  if Array.length order <> Array.length ins then
    invalid_arg "Build.of_netlist: order length must equal the input count";
  Robdd.create_sized ~nvars:(Array.length ins) ~cache_capacity:(4 * Netlist.size t)

let of_netlist ?order t =
  let order = match order with Some o -> o | None -> Ordering.reverse_topological t in
  build_in ~order t (fresh_manager ~order t)

let output_roots t b = Array.map (fun (_, d) -> b.roots.(d)) (Netlist.outputs t)

let shared_output_size t b =
  Robdd.shared_size b.manager (Array.to_list (output_roots t b))

let shared_all_size t b =
  let gate_roots = ref [] in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.Input -> ()
      | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _ | Gate.Or _ | Gate.Xor _ ->
        gate_roots := b.roots.(i) :: !gate_roots)
    t;
  Robdd.shared_size b.manager !gate_roots

let best_order t candidates =
  match candidates with
  | [] -> invalid_arg "Build.best_order: no candidate orders"
  | first :: rest ->
    let score (name, order) =
      let b = of_netlist ~order t in
      (name, order, shared_all_size t b)
    in
    List.fold_left
      (fun (bn, bo, bs) cand ->
        let n, o, s = score cand in
        if s < bs then (n, o, s) else (bn, bo, bs))
      (score first) rest

let probabilities_of_built ~input_probs b =
  let level_probs = Array.map (fun pos -> input_probs.(pos)) b.order in
  (* one shared memo across every root: shared BDD structure is priced once *)
  Robdd.probabilities b.manager level_probs b.roots

let probabilities ?order ~input_probs t =
  if Array.length input_probs <> Netlist.num_inputs t then
    invalid_arg "Build.probabilities: input_probs length mismatch";
  probabilities_of_built ~input_probs (of_netlist ?order t)
