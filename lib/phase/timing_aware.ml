module Netlist = Dpa_logic.Netlist

type config = {
  library : Dpa_domino.Library.t;
  input_probs : float array;
  clock : float;
  model : Dpa_timing.Delay.model;
  exhaustive_limit : int;
  pair_limit : int option;
}

let default_config ~input_probs ~clock =
  {
    library = Dpa_domino.Library.default;
    input_probs;
    clock;
    model = Dpa_timing.Delay.default;
    exhaustive_limit = 10;
    pair_limit = None;
  }

type result = {
  assignment : Dpa_synth.Phase.assignment;
  power : float;
  met : bool;
  delay : float;
  measurements : int;
}

let minimize config net =
  if config.clock <= 0.0 then invalid_arg "Timing_aware.minimize: clock must be positive";
  let n = Netlist.num_outputs net in
  if n = 0 then invalid_arg "Timing_aware.minimize: network has no outputs";
  (* Price after timing closure: resizing mutates the drives the power
     estimate then reads, so the sample reflects the silicon that would
     actually ship at this clock. *)
  let price mapped =
    let r = Dpa_timing.Resize.meet ~model:config.model ~clock:config.clock mapped in
    let report = Dpa_power.Estimate.of_mapped ~input_probs:config.input_probs mapped in
    {
      Measure.power =
        (if r.Dpa_timing.Resize.met then report.Dpa_power.Estimate.total else infinity);
      size = Dpa_domino.Mapped.size mapped;
      domino_switching = report.Dpa_power.Estimate.domino_switching;
    }
  in
  let measure =
    Measure.create ~library:config.library ~pricer:price ~input_probs:config.input_probs net
  in
  let assignment =
    if n <= config.exhaustive_limit then
      (Exhaustive.run measure ~num_outputs:n).Exhaustive.assignment
    else (Greedy.run ?pair_limit:config.pair_limit measure ~cost:(Cost.make net)).Greedy.assignment
  in
  (* final realization: resize once more to report the winner's delay *)
  let mapped = Measure.realize_mapped measure assignment in
  let r = Dpa_timing.Resize.meet ~model:config.model ~clock:config.clock mapped in
  let report = Dpa_power.Estimate.of_mapped ~input_probs:config.input_probs mapped in
  {
    assignment;
    power =
      (if r.Dpa_timing.Resize.met then report.Dpa_power.Estimate.total else infinity);
    met = r.Dpa_timing.Resize.met;
    delay = r.Dpa_timing.Resize.final_delay;
    measurements = Measure.evaluations measure;
  }
