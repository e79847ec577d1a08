module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate

type polarity = Pos | Neg

let bit = function
  | Pos -> 0
  | Neg -> 1

let pol_of_bit b = if b = 0 then Pos else Neg

type t = {
  original : Netlist.t;
  pis : int array;  (* original PI ids, by position *)
  blk : Netlist.t;
  assignment : Phase.assignment;
  (* original node [i] demanded in polarity bit [b] → block node at index
     [2i+b]; -1 where never demanded *)
  slots : int array;
  (* per block-input position: original PI position, polarity *)
  literal_info : (int * polarity) array;
  duplicated : int;
}

(* The demand walk: original node [i] demanded in polarity bit [b]
   (1 = negative) is slot [2i+b]. Inverters flip the demanded polarity
   and vanish, buffers pass it on; every other slot is emitted once,
   after its fanin slots, as its block gate — AND/OR in negative
   polarity materialize as their DeMorgan dual over negative fanins. *)
let demand original assignment ~emit =
  let outs = Netlist.outputs original in
  if Array.length assignment <> Array.length outs then
    invalid_arg "Inverterless.realize: assignment length mismatch";
  let slots = Array.make (2 * Netlist.size original) (-1) in
  let rec build i b =
    let s = (2 * i) + b in
    let known = slots.(s) in
    if known >= 0 then known
    else begin
      let pol = pol_of_bit b in
      let v =
        match Netlist.gate original i with
        | Gate.Input -> emit i pol Gate.Input
        | Gate.Const v -> emit i pol (Gate.Const (if b = 0 then v else not v))
        | Gate.Buf x -> build x b
        | Gate.Not x -> build x (1 - b)
        | Gate.And xs ->
          let fis = Array.map (fun x -> build x b) xs in
          emit i pol (if b = 0 then Gate.And fis else Gate.Or fis)
        | Gate.Or xs ->
          let fis = Array.map (fun x -> build x b) xs in
          emit i pol (if b = 0 then Gate.Or fis else Gate.And fis)
        | Gate.Xor _ ->
          invalid_arg "Inverterless.realize: XOR present; run Opt.optimize first"
      in
      slots.(s) <- v;
      v
    end
  in
  let roots =
    Array.mapi
      (fun k (_, driver) ->
        build driver (match assignment.(k) with Phase.Positive -> 0 | Phase.Negative -> 1))
      outs
  in
  (slots, roots)

let realize original assignment =
  let blk = Netlist.create ~name:(Netlist.name original ^ "_domino") () in
  let pis = Netlist.inputs original in
  let pi_position = Array.make (Netlist.size original) (-1) in
  Array.iteri (fun pos id -> pi_position.(id) <- pos) pis;
  let literal_info = ref [] in
  let emit i pol g =
    match g with
    | Gate.Input ->
      let pos = pi_position.(i) in
      let base =
        match Netlist.node_name original i with
        | Some n -> n
        | None -> Printf.sprintf "x%d" pos
      in
      literal_info := (pos, pol) :: !literal_info;
      Netlist.add_input ~name:(match pol with Pos -> base | Neg -> "~" ^ base) blk
    | Gate.Const _ | Gate.And _ | Gate.Or _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ ->
      Netlist.add_gate blk g
  in
  let slots, roots = demand original assignment ~emit in
  Array.iteri (fun k (po, _) -> Netlist.add_output blk po roots.(k)) (Netlist.outputs original);
  (* a duplicated node is an original AND/OR realized in both polarities *)
  let duplicated = ref 0 in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.And _ | Gate.Or _ ->
        if slots.(2 * i) >= 0 && slots.((2 * i) + 1) >= 0 then incr duplicated
      | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ -> ())
    original;
  {
    original;
    pis;
    blk;
    assignment = Array.copy assignment;
    slots;
    literal_info = Array.of_list (List.rev !literal_info);
    duplicated = !duplicated;
  }

let block t = t.blk

let phases t = Array.copy t.assignment

let block_literal t ~pi_position pol =
  if pi_position < 0 || pi_position >= Array.length t.pis then None
  else
    let id = t.slots.((2 * t.pis.(pi_position)) + bit pol) in
    if id >= 0 then Some id else None

let slot_nodes t = Array.copy t.slots

(* The slot that created block node [id]: an AND/OR/constant's own. A
   buffer's or inverter's slot shares its fanin's node, and a literal has
   no original gate. *)
let original_of_block_node t id =
  let found = ref None in
  if id >= 0 then
    Array.iteri
      (fun s b ->
        if b = id then
          match Netlist.gate t.original (s / 2) with
          | Gate.And _ | Gate.Or _ | Gate.Const _ -> found := Some (s / 2, pol_of_bit (s land 1))
          | Gate.Input | Gate.Buf _ | Gate.Not _ | Gate.Xor _ -> ())
      t.slots;
  !found

let literals t = Array.copy t.literal_info

type stats = {
  domino_gates : int;
  input_inverters : int;
  output_inverters : int;
  duplicated_nodes : int;
  area : int;
}

let stats t =
  let domino_gates = Netlist.gate_count t.blk in
  let input_inverters =
    Array.fold_left
      (fun acc (_, pol) -> match pol with Neg -> acc + 1 | Pos -> acc)
      0 t.literal_info
  in
  let output_inverters = Phase.count_negative t.assignment in
  {
    domino_gates;
    input_inverters;
    output_inverters;
    duplicated_nodes = t.duplicated;
    area = domino_gates + input_inverters + output_inverters;
  }

let eval_original_outputs t vec =
  let literal_vec =
    Array.map
      (fun (pos, pol) ->
        match pol with
        | Pos -> vec.(pos)
        | Neg -> not vec.(pos))
      t.literal_info
  in
  let blk_outs = Dpa_logic.Eval.outputs t.blk literal_vec in
  Array.mapi
    (fun k v -> match t.assignment.(k) with Phase.Positive -> v | Phase.Negative -> not v)
    blk_outs
