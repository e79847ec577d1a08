module Mapped = Dpa_domino.Mapped

type result = {
  met : bool;
  iterations : int;
  initial_delay : float;
  final_delay : float;
  upsized_cells : int;
}

(* drive multiplier per round, and the round cap *)
let step = 1.25

let max_iterations = 64

let meet ?(model = Delay.default) ?(max_drive = 8.0) ~clock mapped =
  if clock <= 0.0 then invalid_arg "Resize.meet: clock must be positive";
  let initial_delay = (Sta.analyze ~model mapped).Sta.critical_delay in
  let rec loop iter delay =
    if delay <= clock then (true, iter, delay)
    else if iter >= max_iterations then (false, iter, delay)
    else begin
      let report = Sta.analyze ~model mapped in
      let progressed = ref false in
      List.iter
        (fun node ->
          match Mapped.cell_of_node mapped node with
          | Some _ ->
            let d = Mapped.drive mapped node in
            if d < max_drive then begin
              Mapped.set_drive mapped node (Float.min max_drive (d *. step));
              progressed := true
            end
          | None -> ())
        report.Sta.critical_path;
      if not !progressed then (false, iter + 1, report.Sta.critical_delay)
      else
        let delay' = (Sta.analyze ~model mapped).Sta.critical_delay in
        loop (iter + 1) delay'
    end
  in
  let met, iterations, final_delay = loop 0 initial_delay in
  let upsized_cells = ref 0 in
  Dpa_logic.Netlist.iter_nodes
    (fun i _ -> if Mapped.drive mapped i > 1.0 then incr upsized_cells)
    (Mapped.net mapped);
  { met; iterations; initial_delay; final_delay; upsized_cells = !upsized_cells }
