module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate

let area_of t assignment = (Inverterless.stats (Inverterless.realize t assignment)).area

(* The area of a realization is the number of counted ids its POs demand
   plus its negative POs. A counted id is [2·node+b] (b = 1 for negative
   polarity) for an AND/OR gate — one domino gate each — or for a PI's
   negative literal — one input inverter. [closures.(2k+b)] lists the ids
   PO [k] demands in polarity [b]; [counts] holds, per id, how many POs of
   the current assignment demand it, and [live] how many ids are demanded
   at all, so a flip costs the size of the flipped PO's two closures. *)
type index = {
  closures : int array array;
  counts : int array;
  phases : Phase.assignment;
  mutable live : int;
  mutable negative : int;
}

let closures t =
  let outs = Netlist.outputs t in
  let mark = Array.make (2 * Netlist.size t) (-1) in
  let demand = Dpa_util.Vec.create ~dummy:0 () in
  let push s = ignore (Dpa_util.Vec.push demand s) in
  (* the demand walk of Inverterless.realize, collecting counted ids *)
  let rec visit stamp i b =
    let s = (2 * i) + b in
    if mark.(s) <> stamp then begin
      mark.(s) <- stamp;
      match Netlist.gate t i with
      | Gate.Input -> if b = 1 then push s
      | Gate.Const _ -> ()
      | Gate.Buf x -> visit stamp x b
      | Gate.Not x -> visit stamp x (1 - b)
      | Gate.And xs | Gate.Or xs ->
        push s;
        Array.iter (fun x -> visit stamp x b) xs
      | Gate.Xor _ -> invalid_arg "Min_area.index: XOR present; run Opt.optimize first"
    end
  in
  Array.init
    (2 * Array.length outs)
    (fun c ->
      Dpa_util.Vec.clear demand;
      visit c (snd outs.(c / 2)) (c land 1);
      Dpa_util.Vec.to_array demand)

let add ix c =
  Array.iter
    (fun id ->
      let v = ix.counts.(id) in
      if v = 0 then ix.live <- ix.live + 1;
      ix.counts.(id) <- v + 1)
    c

let remove ix c =
  Array.iter
    (fun id ->
      let v = ix.counts.(id) - 1 in
      if v = 0 then ix.live <- ix.live - 1;
      ix.counts.(id) <- v)
    c

let bit = function
  | Phase.Positive -> 0
  | Phase.Negative -> 1

let index t start =
  if Array.length start <> Netlist.num_outputs t then
    invalid_arg "Min_area.index: assignment length mismatch";
  let ix =
    {
      closures = closures t;
      counts = Array.make (2 * Netlist.size t) 0;
      phases = Array.copy start;
      live = 0;
      negative = Phase.count_negative start;
    }
  in
  Array.iteri (fun k p -> add ix ix.closures.((2 * k) + bit p)) start;
  ix

let area ix = ix.live + ix.negative

let flip ix k =
  let p = ix.phases.(k) in
  remove ix ix.closures.((2 * k) + bit p);
  let p' = Phase.flip p in
  add ix ix.closures.((2 * k) + bit p');
  ix.phases.(k) <- p';
  ix.negative <- (ix.negative + match p' with Phase.Negative -> 1 | Phase.Positive -> -1)

let exhaustive t =
  let n = Netlist.num_outputs t in
  if n > 24 then invalid_arg "Min_area.exhaustive: more than 24 outputs is not enumerable";
  let ix = index t (Phase.all_positive n) in
  let best = ref 0 and best_area = ref (area ix) in
  (* codes in Phase.enumerate order: going from [code - 1] to [code] flips
     the trailing ones of [code - 1] and the zero above them *)
  for code = 1 to (1 lsl n) - 1 do
    let k = ref 0 in
    while (code - 1) land (1 lsl !k) <> 0 do
      flip ix !k;
      incr k
    done;
    flip ix !k;
    let a = area ix in
    if a < !best_area then begin
      best := code;
      best_area := a
    end
  done;
  Phase.of_int ~num_outputs:n !best

let local_search ?start t =
  let n = Netlist.num_outputs t in
  let start =
    match start with
    | None -> Phase.all_positive n
    | Some a when Array.length a = n -> a
    | Some a ->
      invalid_arg
        (Printf.sprintf "Min_area.local_search: start has %d phases for %d outputs"
           (Array.length a) n)
  in
  let ix = index t start in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_k = ref (-1) and best_area = ref (area ix) in
    for k = 0 to n - 1 do
      flip ix k;
      let a = area ix in
      flip ix k;
      if a < !best_area then begin
        best_area := a;
        best_k := k
      end
    done;
    if !best_k >= 0 then begin
      flip ix !best_k;
      improved := true
    end
  done;
  Array.copy ix.phases

let best ?(exhaustive_limit = 10) t =
  if Netlist.num_outputs t <= exhaustive_limit then exhaustive t else local_search t
