module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Builder = Dpa_logic.Builder

type stats = {
  collapsed_outputs : int;
  kept_outputs : int;
  cubes : int;
  literals : int;
}

let rebuild ~express ?(max_support = 12) t =
  let built = Dpa_bdd.Build.of_netlist t in
  let m = Dpa_bdd.Build.manager built in
  let b = Builder.create ~name:(Netlist.name t) () in
  let mapping = Array.make (Netlist.size t) (-1) in
  Array.iter
    (fun id -> mapping.(id) <- Builder.input ?name:(Netlist.node_name t id) b)
    (Netlist.inputs t);
  (* structural copy for cones kept multi-level *)
  let rec copy i =
    if mapping.(i) >= 0 then mapping.(i)
    else begin
      let f x = copy x in
      let id =
        match Netlist.gate t i with
        | Gate.Input -> assert false
        | Gate.Const c -> Builder.const b c
        | Gate.Buf x -> f x
        | Gate.Not x -> Builder.not_ b (f x)
        | Gate.And xs -> Builder.and_ b (List.map f (Array.to_list xs))
        | Gate.Or xs -> Builder.or_ b (List.map f (Array.to_list xs))
        | Gate.Xor (x, y) ->
          let ix = f x and iy = f y in
          Builder.or_ b
            [ Builder.and_ b [ ix; Builder.not_ b iy ];
              Builder.and_ b [ Builder.not_ b ix; iy ] ]
      in
      mapping.(i) <- id;
      id
    end
  in
  (* new-builder input id for a BDD level *)
  let input_of_level =
    let ins = Netlist.inputs t in
    let order = Dpa_bdd.Build.order built in
    fun level -> mapping.(ins.(order.(level)))
  in
  let collapsed = ref 0 and kept = ref 0 and cubes_total = ref 0 and lits_total = ref 0 in
  Array.iter
    (fun (po, driver) ->
      let root = (Dpa_bdd.Build.roots built).(driver) in
      let support = Dpa_bdd.Robdd.support m root in
      if List.length support > max_support then begin
        incr kept;
        Builder.output b po (copy driver)
      end
      else begin
        incr collapsed;
        let cover = Dpa_bdd.Isop.of_node m root in
        cubes_total := !cubes_total + List.length cover;
        let id, lits = express b ~input_of_level cover in
        lits_total := !lits_total + lits;
        Builder.output b po id
      end)
    (Netlist.outputs t);
  ( Builder.finish b,
    {
      collapsed_outputs = !collapsed;
      kept_outputs = !kept;
      cubes = !cubes_total;
      literals = !lits_total;
    } )

(* flat two-level expression of an ISOP cover *)
let express_two_level b ~input_of_level cover =
  let build_cube cube =
    match cube with
    | [] -> Builder.const b true
    | _ :: _ ->
      let literals =
        List.map
          (fun { Dpa_bdd.Isop.level; positive } ->
            let x = input_of_level level in
            if positive then x else Builder.not_ b x)
          cube
      in
      Builder.and_ b literals
  in
  let id =
    match cover with
    | [] -> Builder.const b false
    | cubes -> Builder.or_ b (List.map build_cube cubes)
  in
  (id, Dpa_bdd.Isop.literal_count cover)

let two_level ?max_support t = rebuild ~express:express_two_level ?max_support t

let factored ?max_support t =
  (* ISOP literals carry BDD levels; Factor wants input positions, and its
     builder callback wants the new netlist's input for a position. The
     level → position translation happens once per cover via of_isop with
     the identity position map folded into input_of_level. *)
  let express b ~input_of_level cover =
    (* reuse the level-indexed accessor directly: treat levels as
       positions for Factor by translating through an identity order *)
    let max_level =
      List.fold_left
        (fun acc cube ->
          List.fold_left (fun acc { Dpa_bdd.Isop.level; _ } -> max acc level) acc cube)
        (-1) cover
    in
    let order = Array.init (max_level + 1) Fun.id in
    let cubes = Factor.of_isop ~order cover in
    let form = Factor.factor cubes in
    let id = Factor.build b ~input_of_position:input_of_level form in
    (id, Factor.literal_count form)
  in
  rebuild ~express ?max_support t
