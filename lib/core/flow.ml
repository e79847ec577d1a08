module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase
module Mapped = Dpa_domino.Mapped
module Trace = Dpa_obs.Trace

type timing_config = {
  model : Dpa_timing.Delay.model;
  clock_factor : float;
}

let default_timing = { model = Dpa_timing.Delay.default; clock_factor = 0.85 }

type realization = {
  assignment : Phase.assignment;
  size : int;
  power : float;
  critical_delay : float;
  met : bool;
  measurements : int;
  strategy : string;
  degradation : Dpa_power.Engine.degradation;
  degraded_measurements : int;
}

type result = {
  circuit : string;
  n_pi : int;
  n_po : int;
  ma : realization;
  mp : realization;
  clock : float option;
  area_penalty_pct : float;
  power_saving_pct : float;
}

type config = {
  library : Dpa_domino.Library.t;
  input_prob : float;
  exhaustive_limit : int;
  pair_limit : int option;
  timing : timing_config option;
  seed : int;
  budget : Dpa_power.Engine.budget option;
  par : Dpa_util.Par.t option;
  cancel : Dpa_util.Cancel.t;
}

let default_config =
  {
    library = Dpa_domino.Library.default;
    input_prob = 0.5;
    exhaustive_limit = 10;
    pair_limit = None;
    timing = None;
    seed = 1;
    budget = None;
    par = None;
    cancel = Dpa_util.Cancel.none;
  }

(* Map an assignment, optionally resize to the clock, and price it —
   unless [priced] already holds this block's power and degradation.
   Returns the mapped block and its estimate when one was run. *)
let realize_and_price ?priced config net ~input_probs ~clock ~measurements
    ?(degraded_measurements = 0) ~strategy assignment =
  Trace.with_span "flow.realize" ~args:[ ("strategy", Trace.Str strategy) ]
  @@ fun () ->
  let mapped =
    Mapped.map ~library:config.library (Dpa_synth.Inverterless.realize net assignment)
  in
  let met, delay =
    match config.timing, clock with
    | Some tc, Some clk ->
      let r = Dpa_timing.Resize.meet ~model:tc.model ~clock:clk mapped in
      (r.Dpa_timing.Resize.met, r.Dpa_timing.Resize.final_delay)
    | Some tc, None ->
      (true, (Dpa_timing.Sta.analyze ~model:tc.model mapped).Dpa_timing.Sta.critical_delay)
    | None, _ ->
      (true, (Dpa_timing.Sta.analyze mapped).Dpa_timing.Sta.critical_delay)
  in
  let power, degradation, est =
    match priced with
    | Some (power, degradation) -> (power, degradation, None)
    | None ->
      let est =
        Dpa_power.Engine.estimate ?par:config.par ?budget:config.budget
          ~cancel:config.cancel ~input_probs mapped
      in
      ( est.Dpa_power.Engine.report.Dpa_power.Estimate.total,
        est.Dpa_power.Engine.degradation,
        Some (mapped, est) )
  in
  (* Under the timed flow, resizing replaces cells by larger drive
     variants: area is the drive-weighted cell count (a 2× cell occupies
     roughly twice the silicon), matching how the paper's Table 2 sizes
     move after transistor resizing. *)
  let size =
    match config.timing, clock with
    | Some _, Some _ ->
      let drive_sum = ref 0.0 in
      Dpa_logic.Netlist.iter_nodes
        (fun i _ ->
          match Mapped.cell_of_node mapped i with
          | Some _ -> drive_sum := !drive_sum +. Mapped.drive mapped i
          | None -> ())
        (Mapped.net mapped);
      int_of_float
        (Float.round
           (!drive_sum
           +. float_of_int (Mapped.input_inverters mapped + Mapped.output_inverters mapped)))
    | Some _, None | None, (Some _ | None) -> Mapped.size mapped
  in
  ( {
      assignment;
      size;
      power;
      critical_delay = delay;
      met;
      measurements;
      strategy;
      degradation;
      degraded_measurements;
    },
    est )

let compare_ma_mp_probs ?(config = default_config) ~input_probs raw =
  Trace.with_span "flow.compare" ~args:[ ("circuit", Trace.Str (Netlist.name raw)) ]
  @@ fun () ->
  let net = Trace.with_span "flow.optimize" (fun () -> Dpa_synth.Opt.optimize raw) in
  let n_pi = Netlist.num_inputs net and n_po = Netlist.num_outputs net in
  if Array.length input_probs <> n_pi then
    invalid_arg "Flow.compare_ma_mp_probs: input_probs length mismatch";
  (* --- minimum-area baseline ------------------------------------- *)
  let (ma, ma_est), clock =
    Trace.with_span "flow.min_area" @@ fun () ->
    let ma_assignment =
      Dpa_synth.Min_area.best ~exhaustive_limit:config.exhaustive_limit net
    in
    let ma_strategy =
      if n_po <= config.exhaustive_limit then "exhaustive-area" else "local-search-area"
    in
    (* the clock constraint derives from MA's unsized critical delay *)
    let clock =
      match config.timing with
      | None -> None
      | Some tc ->
        let ma_mapped =
          Mapped.map ~library:config.library
            (Dpa_synth.Inverterless.realize net ma_assignment)
        in
        let delay =
          (Dpa_timing.Sta.analyze ~model:tc.model ma_mapped).Dpa_timing.Sta.critical_delay
        in
        Some (tc.clock_factor *. delay)
    in
    ( realize_and_price config net ~input_probs ~clock ~measurements:0
        ~strategy:ma_strategy ma_assignment,
      clock )
  in
  (* --- minimum-power flow ---------------------------------------- *)
  let mp =
    Trace.with_span "flow.min_power" @@ fun () ->
    let opt_config =
      {
        Dpa_phase.Optimizer.library = config.library;
        input_probs;
        strategy = Dpa_phase.Optimizer.Auto;
        exhaustive_limit = config.exhaustive_limit;
        pair_limit = config.pair_limit;
        seed = config.seed;
        budget = config.budget;
        par = config.par;
        cancel = config.cancel;
      }
    in
    (* Each distinct assignment is estimated once, base probabilities
       included: a greedy search reads them off its price of the
       all-positive block. Untimed, a search that prices with the engine
       (a bounded budget, or compound cells) gives a block the final
       estimate's price, bit for bit: MA's estimate seeds the search
       (and, when MA is all-positive, its base probabilities), and MP's
       comes from it. The slot table (Measure) sums under one variable
       order for every candidate, which differs from a from-scratch
       estimate in the last ulp, and the timed flow prices resized
       blocks, so those estimate MP unless it is MA. *)
    let untimed = Option.is_none config.timing in
    let measure = Dpa_phase.Optimizer.measure opt_config net in
    if untimed then
      Option.iter
        (fun (mapped, est) -> Dpa_phase.Measure.prime measure ma.assignment mapped est)
        ma_est;
    let opt = Dpa_phase.Optimizer.minimize_power_with measure opt_config net in
    let assignment = opt.Dpa_phase.Optimizer.assignment in
    let measurements = opt.Dpa_phase.Optimizer.measurements
    and degraded_measurements = opt.Dpa_phase.Optimizer.degraded_measurements
    and strategy = opt.Dpa_phase.Optimizer.strategy_used in
    if Phase.equal assignment ma.assignment then
      { ma with measurements; degraded_measurements; strategy }
    else
      let priced =
        if untimed then
          Option.map
            (fun (s, d) -> (s.Dpa_phase.Measure.power, d))
            (Dpa_phase.Measure.priced measure assignment)
        else None
      in
      fst
        (realize_and_price ?priced config net ~input_probs ~clock ~measurements
           ~degraded_measurements ~strategy assignment)
  in
  {
    circuit = Netlist.name raw;
    n_pi;
    n_po;
    ma;
    mp;
    clock;
    area_penalty_pct =
      (if ma.size = 0 then 0.0
       else float_of_int (mp.size - ma.size) /. float_of_int ma.size *. 100.0);
    power_saving_pct = Dpa_util.Stats.percent_change ~from:ma.power ~to_:mp.power;
  }

let compare_ma_mp ?(config = default_config) raw =
  let n_pi = Netlist.num_inputs raw in
  compare_ma_mp_probs ~config ~input_probs:(Array.make n_pi config.input_prob) raw
