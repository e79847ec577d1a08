module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Int_table = Dpa_util.Int_table

type t = {
  net : Netlist.t;
  manager : Robdd.manager;
  order : int array;  (* level → token; a sift permutes it in place *)
  leaf : int -> int * bool;
  pos_of_input : Int_table.t;  (* input node id → input position *)
  level_of_token : Int_table.t;  (* token → level, rebuilt after a sift *)
  roots : Robdd.node array;
  built : Bytes.t;  (* per node id; '\001' = root valid *)
}

let manager t = t.manager

let order t = t.order

let roots t = t.roots

let place_tokens t =
  Array.iteri (fun lvl tok -> Int_table.replace t.level_of_token tok lvl) t.order

let start ?(max_nodes = max_int) ~order ~leaf net =
  let ins = Netlist.inputs net in
  let pos_of_input = Int_table.create ~capacity:(2 * Array.length ins) () in
  Array.iteri (fun k id -> Int_table.replace pos_of_input id k) ins;
  let t =
    {
      net;
      manager =
        Robdd.create_sized ~nvars:(Array.length order)
          ~cache_capacity:(4 * min (Netlist.size net) max_nodes);
      order = Array.copy order;
      leaf;
      pos_of_input;
      level_of_token = Int_table.create ~capacity:(2 * Array.length order) ();
      roots = Array.make (Netlist.size net) Robdd.bdd_false;
      built = Bytes.make (Netlist.size net) '\000';
    }
  in
  place_tokens t;
  t

let is_built t i = Bytes.get t.built i = '\001'

(* Build every not-yet-built node selected by [within], in id (=
   topological) order. A budget exhaustion mid-node leaves that node
   unbuilt but keeps everything interned so far: a later retry, or another
   cone sharing the prefix, resumes from unique-table hits. *)
let build t ~within =
  let m = t.manager and roots = t.roots in
  let fold apply neutral xs = Array.fold_left (fun acc x -> apply m acc roots.(x)) neutral xs in
  Netlist.iter_nodes
    (fun i g ->
      if within i && not (is_built t i) then begin
        roots.(i) <-
          (match g with
          | Gate.Input ->
            let token, complemented = t.leaf (Int_table.find t.pos_of_input i) in
            let v = Robdd.var m (Int_table.find t.level_of_token token) in
            if complemented then Robdd.neg m v else v
          | Gate.Const b -> if b then Robdd.bdd_true else Robdd.bdd_false
          | Gate.Buf x -> roots.(x)
          | Gate.Not x -> Robdd.neg m roots.(x)
          | Gate.And xs -> fold Robdd.apply_and Robdd.bdd_true xs
          | Gate.Or xs -> fold Robdd.apply_or Robdd.bdd_false xs
          | Gate.Xor (a, b) -> Robdd.apply_xor m roots.(a) roots.(b));
        Bytes.set t.built i '\001'
      end)
    t.net

(* One memo across every root: structure shared between nodes is priced
   once. *)
let node_probabilities t ~input_probs =
  let cache = Robdd.prob_cache t.manager (Array.map (fun tok -> input_probs.(tok)) t.order) in
  Array.mapi
    (fun i r -> if is_built t i then Robdd.cached_probability cache r else Float.nan)
    t.roots

(* Roots are every built node — including the interned prefixes of cones
   whose build blew the budget, which is the point: sifting compacts the
   prefix (and the opening sweep retires the rest), so a retry both shares
   more and starts with reclaimed headroom. [level_of_token] follows the
   permuted order even when the session ends early (budget,
   cancellation), so [build] keeps placing leaves at the right levels. *)
let sift ?passes ?max_swaps ?max_new_nodes ?deadline ?cancel t =
  let roots = ref [] in
  Array.iteri
    (fun i r -> if is_built t i && not (Robdd.is_terminal r) then roots := r :: !roots)
    t.roots;
  Fun.protect
    ~finally:(fun () -> place_tokens t)
    (fun () ->
      Sift.sift ?passes ?max_swaps ?max_new_nodes ?deadline ?cancel ~roots:!roots ~order:t.order
        t.manager)

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
