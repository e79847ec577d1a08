module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Builder = Dpa_logic.Builder

let optimize t =
  let b = Builder.create ~name:(Netlist.name t) () in
  let n = Netlist.size t in
  let mapping = Array.make n (-1) in
  (* Preserve the full input interface. *)
  Array.iter
    (fun id -> mapping.(id) <- Builder.input ?name:(Netlist.node_name t id) b)
    (Netlist.inputs t);
  let rec build i =
    if mapping.(i) >= 0 then mapping.(i)
    else begin
      let f x = build x in
      let id =
        match Netlist.gate t i with
        | Gate.Input -> assert false (* mapped above *)
        | Gate.Const c -> Builder.const b c
        | Gate.Buf x -> f x
        | Gate.Not x -> Builder.not_ b (f x)
        | Gate.And xs -> Builder.and_ b (List.map f (Array.to_list xs))
        | Gate.Or xs -> Builder.or_ b (List.map f (Array.to_list xs))
        | Gate.Xor (x, y) ->
          let ix = f x and iy = f y in
          Builder.or_ b
            [ Builder.and_ b [ ix; Builder.not_ b iy ]; Builder.and_ b [ Builder.not_ b ix; iy ] ]
      in
      mapping.(i) <- id;
      id
    end
  in
  Array.iter (fun (po, d) -> Builder.output b po (build d)) (Netlist.outputs t);
  Builder.finish b

let is_domino_ready t =
  let ok = ref true in
  Netlist.iter_nodes
    (fun _ g ->
      match g with
      | Gate.Xor _ -> ok := false
      | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _ | Gate.Or _ -> ())
    t;
  !ok
