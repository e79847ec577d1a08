type t = {
  max_and_width : int;
  max_or_width : int;
  compound_legs : int;
  capacitance : Cell.t -> float;
  penalty : Cell.t -> float;
}

let default =
  {
    max_and_width = 4;
    max_or_width = 8;
    compound_legs = 0;
    capacitance = (fun _ -> 1.0);
    penalty = (fun _ -> 0.0);
  }

let with_compound lib = { lib with compound_legs = 4 }

let with_series_penalty ?(per_stage = 0.25) lib =
  let penalty cell =
    match cell with
    | Cell.Dynamic _ | Cell.Compound _ ->
      lib.penalty cell +. (per_stage *. float_of_int (Cell.series_transistors cell - 1))
    | Cell.Static_inverter -> lib.penalty cell
  in
  { lib with penalty }

let legal_width t kind w =
  w >= 2
  && match kind with Cell.And -> w <= t.max_and_width | Cell.Or -> w <= t.max_or_width

let cell_of_gate t g =
  match g with
  | Dpa_logic.Gate.And xs ->
    let w = Array.length xs in
    if legal_width t Cell.And w then Cell.dynamic Cell.And w
    else invalid_arg (Printf.sprintf "Library.cell_of_gate: AND width %d exceeds library" w)
  | Dpa_logic.Gate.Or xs ->
    let w = Array.length xs in
    if legal_width t Cell.Or w then Cell.dynamic Cell.Or w
    else invalid_arg (Printf.sprintf "Library.cell_of_gate: OR width %d exceeds library" w)
  | Dpa_logic.Gate.Input | Dpa_logic.Gate.Const _ | Dpa_logic.Gate.Buf _
  | Dpa_logic.Gate.Not _ | Dpa_logic.Gate.Xor _ ->
    invalid_arg "Library.cell_of_gate: only AND/OR gates map to domino cells"
