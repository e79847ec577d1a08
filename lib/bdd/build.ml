module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Int_table = Dpa_util.Int_table
module Dpa_error = Dpa_util.Dpa_error

(* What a collecting build keeps beside its roots. *)
type collecting = {
  cache : Robdd.prob_cache;
  probs : float array;  (* per node id, recorded as the node is built; NaN before *)
  in_union : Bytes.t;  (* per node id; '\001' = selected at the switch *)
  pending : int array;  (* per node id: fanout edges in the union not yet built *)
}

type t = {
  net : Netlist.t;
  manager : Robdd.manager;
  order : int array;  (* level → token *)
  leaf : int -> int * bool;
  pos_of_input : Int_table.t;  (* input node id → input position *)
  level_of_token : Int_table.t;  (* token → level *)
  roots : Robdd.node array;
  built : Bytes.t;  (* per node id; '\001' = root valid *)
  mutable collecting : collecting option;
}

let manager t = t.manager

let order t = t.order

let roots t = t.roots

let start ?(max_nodes = max_int) ~order ~leaf net =
  let ins = Netlist.inputs net in
  let pos_of_input = Int_table.create ~capacity:(2 * Array.length ins) () in
  Array.iteri (fun k id -> Int_table.replace pos_of_input id k) ins;
  let level_of_token = Int_table.create ~capacity:(2 * Array.length order) () in
  Array.iteri (fun lvl tok -> Int_table.replace level_of_token tok lvl) order;
  {
    net;
    manager =
      Robdd.create_sized ~nvars:(Array.length order)
        ~cache_capacity:(4 * min (Netlist.size net) max_nodes);
    order = Array.copy order;
    leaf;
    pos_of_input;
    level_of_token;
    roots = Array.make (Netlist.size net) Robdd.bdd_false;
    built = Bytes.make (Netlist.size net) '\000';
    collecting = None;
  }

let is_built t i = Bytes.get t.built i = '\001'

let node_bdd t i g =
  let m = t.manager and roots = t.roots in
  match g with
  | Gate.Input ->
    let token, complemented = t.leaf (Int_table.find t.pos_of_input i) in
    let v = Robdd.var m (Int_table.find t.level_of_token token) in
    if complemented then Robdd.neg m v else v
  | Gate.Const b -> if b then Robdd.bdd_true else Robdd.bdd_false
  | Gate.Buf x -> roots.(x)
  | Gate.Not x -> Robdd.neg m roots.(x)
  | Gate.And xs -> Array.fold_left (fun acc x -> Robdd.apply_and m acc roots.(x)) Robdd.bdd_true xs
  | Gate.Or xs -> Array.fold_left (fun acc x -> Robdd.apply_or m acc roots.(x)) Robdd.bdd_false xs
  | Gate.Xor (a, b) -> Robdd.apply_xor m roots.(a) roots.(b)

(* The root of a built node with an unbuilt fanout in the union is all
   that a later node can read, so those roots are what a collection
   keeps. *)
let collect t c =
  let pinned = ref [] in
  Array.iteri (fun i r -> if c.pending.(i) > 0 && is_built t i then pinned := r :: !pinned) t.roots;
  ignore (Robdd.collect ~cache:c.cache t.manager !pinned)

(* On the node cap: collect from the pinned roots, then retry the node
   once if at most half the cap is live. The node's own partial results
   are not pinned, so they go too. *)
let collecting_bdd t c i g =
  if Bytes.get c.in_union i = '\000' then
    invalid_arg "Build.build: a collecting build only builds its union";
  let r =
    match node_bdd t i g with
    | r -> r
    | exception
        (Dpa_error.Budget_exceeded { Dpa_error.resource = Dpa_error.Bdd_nodes; limit; _ } as e) ->
      collect t c;
      if float_of_int (2 * Robdd.live_nodes t.manager) <= limit then node_bdd t i g else raise e
  in
  c.probs.(i) <- Robdd.cached_probability c.cache r;
  Array.iter (fun x -> c.pending.(x) <- c.pending.(x) - 1) (Gate.fanins g);
  r

(* Build every not-yet-built node selected by [within], in id (=
   topological) order. A budget exhaustion mid-node leaves that node
   unbuilt but keeps everything interned so far: a later retry, or another
   cone sharing the prefix, resumes from unique-table hits. *)
let build t ~within =
  Netlist.iter_nodes
    (fun i g ->
      if within i && not (is_built t i) then begin
        t.roots.(i) <-
          (match t.collecting with
          | None -> node_bdd t i g
          | Some c -> collecting_bdd t c i g);
        Bytes.set t.built i '\001'
      end)
    t.net

let level_cache t ~input_probs =
  Robdd.prob_cache t.manager (Array.map (fun tok -> input_probs.(tok)) t.order)

(* One memo across every root: structure shared between nodes is priced
   once. *)
let probabilities_of_built t cache =
  Array.mapi
    (fun i r -> if is_built t i then Robdd.cached_probability cache r else Float.nan)
    t.roots

let node_probabilities t ~input_probs =
  if Option.is_some t.collecting then
    invalid_arg "Build.node_probabilities: a collecting build records its own";
  probabilities_of_built t (level_cache t ~input_probs)

let collecting t ~input_probs ~within =
  if Option.is_some t.collecting then invalid_arg "Build.collecting: already collecting";
  let n = Netlist.size t.net in
  let cache = level_cache t ~input_probs in
  let probs = probabilities_of_built t cache in
  let in_union = Bytes.make n '\000' and pending = Array.make n 0 in
  Netlist.iter_nodes
    (fun i g ->
      if within i then begin
        Bytes.set in_union i '\001';
        if not (is_built t i) then
          Array.iter (fun x -> pending.(x) <- pending.(x) + 1) (Gate.fanins g)
      end)
    t.net;
  t.collecting <- Some { cache; probs; in_union; pending };
  probs

let of_netlist ?order net =
  let order = match order with Some o -> o | None -> Ordering.reverse_topological net in
  if Array.length order <> Netlist.num_inputs net then
    invalid_arg "Build.of_netlist: order length must equal the input count";
  let t = start ~order ~leaf:(fun k -> (k, false)) net in
  build t ~within:(fun _ -> true);
  t

let output_roots net t = Array.map (fun (_, d) -> t.roots.(d)) (Netlist.outputs net)

let shared_output_size net t = Robdd.shared_size t.manager (Array.to_list (output_roots net t))

let shared_all_size net t =
  let gate_roots = ref [] in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.Input -> ()
      | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _ | Gate.Or _ | Gate.Xor _ ->
        gate_roots := t.roots.(i) :: !gate_roots)
    net;
  Robdd.shared_size t.manager !gate_roots

let best_order net candidates =
  match candidates with
  | [] -> invalid_arg "Build.best_order: no candidate orders"
  | first :: rest ->
    let score (name, order) = (name, order, shared_all_size net (of_netlist ~order net)) in
    List.fold_left
      (fun (bn, bo, bs) cand ->
        let n, o, s = score cand in
        if s < bs then (n, o, s) else (bn, bo, bs))
      (score first) rest

let probabilities ?order ~input_probs net =
  if Array.length input_probs <> Netlist.num_inputs net then
    invalid_arg "Build.probabilities: input_probs length mismatch";
  node_probabilities (of_netlist ?order net) ~input_probs
