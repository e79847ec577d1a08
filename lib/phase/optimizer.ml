module Netlist = Dpa_logic.Netlist

type strategy =
  | Auto
  | Exhaustive
  | Greedy
  | Multi_start of int
  | Annealing of Annealing.params

type config = {
  library : Dpa_domino.Library.t;
  input_probs : float array;
  strategy : strategy;
  exhaustive_limit : int;
  pair_limit : int option;
  seed : int;
  budget : Dpa_power.Engine.budget option;
  par : Dpa_util.Par.t option;
  cancel : Dpa_util.Cancel.t;
}

let default_config ~input_probs =
  {
    library = Dpa_domino.Library.default;
    input_probs;
    strategy = Auto;
    exhaustive_limit = 10;
    pair_limit = None;
    seed = 1;
    budget = None;
    par = None;
    cancel = Dpa_util.Cancel.none;
  }

type result = {
  assignment : Dpa_synth.Phase.assignment;
  power : float;
  size : int;
  measurements : int;
  strategy_used : string;
  degraded_measurements : int;
  degradation : Dpa_power.Engine.degradation option;
}

let measure config net =
  Measure.create ~library:config.library ?budget:config.budget ~cancel:config.cancel
    ?par:config.par ~input_probs:config.input_probs net

let minimize_power_with measure config net =
  let n = Netlist.num_outputs net in
  if n = 0 then invalid_arg "Optimizer.minimize_power: network has no outputs";
  Dpa_obs.Trace.with_span "phase.optimize" ~args:[ ("outputs", Dpa_obs.Trace.Int n) ]
  @@ fun () ->
  let run_exhaustive () =
    let r = Exhaustive.run measure ~num_outputs:n in
    (r.Exhaustive.assignment, r.Exhaustive.power, r.Exhaustive.size, "exhaustive")
  in
  let run_greedy () =
    let r = Greedy.run ?pair_limit:config.pair_limit measure ~cost:(Cost.make net) in
    (r.Greedy.assignment, r.Greedy.power, r.Greedy.size, "greedy")
  in
  let run_multi_start restarts =
    if restarts < 1 then invalid_arg "Optimizer: Multi_start needs at least one run";
    let cost = Cost.make net in
    let rng = Dpa_util.Rng.create config.seed in
    let run initial = Greedy.run ~initial ?pair_limit:config.pair_limit measure ~cost in
    let first = run `All_positive in
    let best = ref first in
    for _ = 2 to restarts do
      let r = run (`Random rng) in
      if
        r.Greedy.power < !best.Greedy.power
        || (r.Greedy.power = !best.Greedy.power && r.Greedy.size < !best.Greedy.size)
      then best := r
    done;
    ( !best.Greedy.assignment,
      !best.Greedy.power,
      !best.Greedy.size,
      Printf.sprintf "multi-start(%d)" restarts )
  in
  let assignment, power, size, strategy_used =
    match config.strategy with
    | Exhaustive -> run_exhaustive ()
    | Greedy -> run_greedy ()
    | Multi_start restarts -> run_multi_start restarts
    | Annealing params ->
      let rng = Dpa_util.Rng.create config.seed in
      let r = Annealing.run ~params rng measure ~num_outputs:n in
      (r.Annealing.assignment, r.Annealing.power, r.Annealing.size, "annealing")
    | Auto -> if n <= config.exhaustive_limit then run_exhaustive () else run_greedy ()
  in
  Dpa_obs.Trace.add_args
    [
      ("strategy", Dpa_obs.Trace.Str strategy_used);
      ("measurements", Dpa_obs.Trace.Int (Measure.evaluations measure));
    ];
  {
    assignment;
    power;
    size;
    measurements = Measure.evaluations measure;
    strategy_used;
    degraded_measurements = Measure.degraded_evaluations measure;
    degradation = Measure.worst_degradation measure;
  }

let minimize_power config net = minimize_power_with (measure config net) config net
