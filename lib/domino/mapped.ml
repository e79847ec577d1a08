module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Inverterless = Dpa_synth.Inverterless

type t = {
  net : Netlist.t;
  lits : (int * Inverterless.polarity) array;
  assignment : Dpa_synth.Phase.assignment;
  lib : Library.t;
  mutable drives : float array;
  absorbed : bool array;  (* AND folded into a consuming compound cell *)
  slot_roots : int array;  (* source slot -> its cell-tree root, -1 if undemanded *)
  compound : (int, int list) Hashtbl.t;  (* OR node -> pulldown leg widths *)
}

(* Split [ids] into a balanced tree of [op] gates of width ≤ [maxw]. *)
let rec tree_reduce add op maxw ids =
  let n = Array.length ids in
  if n = 1 then ids.(0)
  else if n <= maxw then add (op ids)
  else begin
    (* chunk into ⌈n / maxw⌉ groups as evenly as possible *)
    let groups = (n + maxw - 1) / maxw in
    let parents =
      Array.init groups (fun g ->
          let start = g * n / groups in
          let stop = (g + 1) * n / groups in
          let chunk = Array.sub ids start (stop - start) in
          tree_reduce add op maxw chunk)
    in
    tree_reduce add op maxw parents
  end

let cell_tree library ~add g =
  match g with
  | Gate.And xs -> tree_reduce add (fun ids -> Gate.And ids) library.Library.max_and_width xs
  | Gate.Or xs -> tree_reduce add (fun ids -> Gate.Or ids) library.Library.max_or_width xs
  | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ ->
    invalid_arg "Mapped.cell_tree: only AND/OR gates map to cells"

let absorbs library = library.Library.compound_legs >= 2

let map ?(library = Library.default) inv =
  let src = Inverterless.block inv in
  let net = Netlist.create ~name:(Netlist.name src ^ "_mapped") () in
  let mapping = Array.make (Netlist.size src) (-1) in
  let add g = Netlist.add_gate net g in
  Netlist.iter_nodes
    (fun i g ->
      let remap xs = Array.map (fun x -> mapping.(x)) xs in
      mapping.(i) <-
        (match g with
        | Gate.Input -> Netlist.add_input ?name:(Netlist.node_name src i) net
        | Gate.Const b -> Netlist.add_gate net (Gate.Const b)
        | Gate.And xs -> cell_tree library ~add (Gate.And (remap xs))
        | Gate.Or xs -> cell_tree library ~add (Gate.Or (remap xs))
        | Gate.Buf _ | Gate.Not _ | Gate.Xor _ ->
          invalid_arg "Mapped.map: inverterless block must contain only AND/OR"))
    src;
  Array.iter (fun (po, d) -> Netlist.add_output net po mapping.(d)) (Netlist.outputs src);
  (* compound absorption: fold single-fanout AND terms into the consuming
     OR's pulldown network when the library offers OR-of-AND cells *)
  let n = Netlist.size net in
  let absorbed = Array.make n false in
  let compound = Hashtbl.create 16 in
  if absorbs library then begin
    let fanouts = Dpa_logic.Topo.fanout_counts net in
    let po_drivers = Array.make n false in
    Array.iter (fun (_, d) -> po_drivers.(d) <- true) (Netlist.outputs net);
    Netlist.iter_nodes
      (fun i g ->
        match g with
        | Gate.Or xs when Array.length xs <= library.Library.compound_legs ->
          let legs = ref [] and any_absorbed = ref false in
          let marks = ref [] in
          Array.iter
            (fun x ->
              match Netlist.gate net x with
              | Gate.And ws
                when fanouts.(x) = 1 && (not po_drivers.(x))
                     && Array.length ws <= library.Library.max_and_width ->
                legs := Array.length ws :: !legs;
                marks := x :: !marks;
                any_absorbed := true
              | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _
              | Gate.Or _ | Gate.Xor _ -> legs := 1 :: !legs)
            xs;
          if !any_absorbed then begin
            List.iter (fun x -> absorbed.(x) <- true) !marks;
            Hashtbl.replace compound i !legs
          end
        | Gate.Or _ | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _
        | Gate.Xor _ -> ())
      net
  end;
  {
    net;
    lits = Inverterless.literals inv;
    assignment = Inverterless.phases inv;
    lib = library;
    drives = Array.make n 1.0;
    absorbed;
    compound;
    slot_roots =
      Array.map (fun b -> if b < 0 then -1 else mapping.(b)) (Inverterless.slot_nodes inv);
  }

let net t = t.net

let library t = t.lib

let assignment t = Array.copy t.assignment

let literals t = Array.copy t.lits

let slot_root t s = t.slot_roots.(s)

let cell_of_node t i =
  if t.absorbed.(i) then None
  else
    match Hashtbl.find_opt t.compound i with
    | Some legs -> Some (Cell.compound legs)
    | None -> (
      match Netlist.gate t.net i with
      | Gate.And _ | Gate.Or _ -> Some (Library.cell_of_gate t.lib (Netlist.gate t.net i))
      | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ -> None)

let is_absorbed t i = t.absorbed.(i)

let input_inverters t =
  Array.fold_left
    (fun acc (_, pol) ->
      match pol with Inverterless.Neg -> acc + 1 | Inverterless.Pos -> acc)
    0 t.lits

let output_inverters t = Dpa_synth.Phase.count_negative t.assignment

let dynamic_cells t =
  let count = ref 0 in
  Netlist.iter_nodes
    (fun i _ -> match cell_of_node t i with Some _ -> incr count | None -> ())
    t.net;
  !count

let size t = dynamic_cells t + input_inverters t + output_inverters t

let drive t i = t.drives.(i)

let set_drive t i d =
  if d <= 0.0 then invalid_arg "Mapped.set_drive: drive must be positive";
  t.drives.(i) <- d

let eval_original_outputs t vec =
  let literal_vec =
    Array.map
      (fun (pos, pol) ->
        match pol with
        | Inverterless.Pos -> vec.(pos)
        | Inverterless.Neg -> not vec.(pos))
      t.lits
  in
  let outs = Dpa_logic.Eval.outputs t.net literal_vec in
  Array.mapi
    (fun k v ->
      match t.assignment.(k) with
      | Dpa_synth.Phase.Positive -> v
      | Dpa_synth.Phase.Negative -> not v)
    outs
