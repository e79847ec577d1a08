let order t = Array.init (Netlist.size t) Fun.id

let levels t =
  let n = Netlist.size t in
  let lv = Array.make n 0 in
  Netlist.iter_nodes
    (fun i g ->
      let fis = Gate.fanins g in
      if Array.length fis > 0 then
        lv.(i) <- 1 + Array.fold_left (fun m x -> max m lv.(x)) 0 fis)
    t;
  lv

let fanout_counts t =
  let counts = Array.make (Netlist.size t) 0 in
  Netlist.iter_nodes
    (fun _ g -> Array.iter (fun x -> counts.(x) <- counts.(x) + 1) (Gate.fanins g))
    t;
  counts

let fanouts t =
  let n = Netlist.size t in
  let lists = Array.make n [] in
  (* walk ids downward so each list ends up ascending *)
  for i = n - 1 downto 0 do
    Array.iter (fun x -> lists.(x) <- i :: lists.(x)) (Netlist.fanins t i)
  done;
  Array.map Array.of_list lists

let max_level t = Array.fold_left max 0 (levels t)

let fanout_cone_sizes t =
  let module Bitset = Dpa_util.Bitset in
  let n = Netlist.size t in
  let fo = fanouts t in
  (* A node's set is read only by its fanins, all of lower id, so in
     descending order its lowest fanin reads it last; it is dropped then.
     A set lives from its node's turn to its lowest fanin's turn. *)
  let lowest = Array.make n (-1) in
  for i = n - 1 downto 0 do
    Array.iter (fun reader -> lowest.(reader) <- i) fo.(i)
  done;
  let dropped = Bitset.create 0 in
  let cones = Array.make n dropped in
  let sizes = Array.make n 0 in
  (* Transitive fanout as bitsets, computed in reverse topological order. *)
  for i = n - 1 downto 0 do
    let cone = Bitset.create n in
    Array.iter
      (fun reader ->
        Bitset.add cone reader;
        Bitset.union_into cone cones.(reader))
      fo.(i);
    sizes.(i) <- Bitset.cardinal cone;
    Array.iter (fun reader -> if lowest.(reader) = i then cones.(reader) <- dropped) fo.(i);
    if lowest.(i) >= 0 then cones.(i) <- cone
  done;
  sizes

let gate_traversal t =
  let lv = levels t in
  let cone = fanout_cone_sizes t in
  let gates = ref [] in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.Input -> ()
      | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _ | Gate.Or _ | Gate.Xor _ ->
        gates := i :: !gates)
    t;
  let arr = Array.of_list (List.rev !gates) in
  let compare_gates a b =
    match compare lv.(a) lv.(b) with
    | 0 -> (
      match compare cone.(b) cone.(a) (* decreasing cone size *) with
      | 0 -> compare a b
      | c -> c)
    | c -> c
  in
  Array.sort compare_gates arr;
  arr
