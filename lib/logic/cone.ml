module Bitset = Dpa_util.Bitset

let of_node t root =
  let n = Netlist.size t in
  let cone = Bitset.create n in
  let rec visit i =
    if not (Bitset.mem cone i) then begin
      Bitset.add cone i;
      Array.iter visit (Netlist.fanins t i)
    end
  in
  visit root;
  cone

let of_outputs t =
  (* One depth-first walk per output, the cone itself serving as the
     visited set: memory is one set per output, not one per node. *)
  let n = Netlist.size t in
  let fanins = Array.init n (Netlist.fanins t) in
  let stack = Array.make (max n 1) 0 in
  Array.map
    (fun (_, root) ->
      let cone = Bitset.create n in
      Bitset.add cone root;
      stack.(0) <- root;
      let top = ref 1 in
      while !top > 0 do
        decr top;
        let fi = fanins.(stack.(!top)) in
        for k = 0 to Array.length fi - 1 do
          let x = fi.(k) in
          if not (Bitset.mem cone x) then begin
            Bitset.add cone x;
            stack.(!top) <- x;
            incr top
          end
        done
      done;
      cone)
    (Netlist.outputs t)

let support t root =
  let cone = of_node t root in
  let acc = ref [] in
  Bitset.iter (fun i -> if Netlist.is_input t i then acc := i :: !acc) cone;
  Array.of_list (List.rev !acc)

let overlap a b =
  let da = Bitset.cardinal a and db = Bitset.cardinal b in
  if da + db = 0 then 0.0
  else float_of_int (Bitset.inter_cardinal a b) /. float_of_int (da + db)
