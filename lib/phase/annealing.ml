module Phase = Dpa_synth.Phase
module Rng = Dpa_util.Rng

type params = {
  steps : int;
  initial_temperature : float;
  cooling : float;
}

let default_params = { steps = 400; initial_temperature = 0.05; cooling = 0.985 }

type result = {
  assignment : Phase.assignment;
  power : float;
  size : int;
  accepted : int;
}

let run ?(params = default_params) rng measure ~num_outputs =
  if num_outputs < 1 then invalid_arg "Annealing.run: no outputs";
  let current = ref (Phase.all_positive num_outputs) in
  let current_power = ref (Measure.eval measure !current).Measure.power in
  let best = ref (Array.copy !current) in
  let best_sample = ref (Measure.eval measure !current) in
  let temperature = ref (params.initial_temperature *. Float.max !current_power 1e-9) in
  let accepted = ref 0 in
  for _ = 1 to params.steps do
    let k = Rng.int rng num_outputs in
    let proposed = Phase.flip_at !current k in
    let sample = Measure.eval measure proposed in
    let delta = sample.Measure.power -. !current_power in
    let accept =
      delta < 0.0
      || (!temperature > 0.0 && Rng.float rng 1.0 < exp (-.delta /. !temperature))
    in
    if accept then begin
      incr accepted;
      current := proposed;
      current_power := sample.Measure.power;
      if
        sample.Measure.power < !best_sample.Measure.power
        || (sample.Measure.power = !best_sample.Measure.power
            && sample.Measure.size < !best_sample.Measure.size)
      then begin
        best := proposed;
        best_sample := sample
      end
    end;
    temperature := !temperature *. params.cooling
  done;
  {
    assignment = !best;
    power = !best_sample.Measure.power;
    size = !best_sample.Measure.size;
    accepted = !accepted;
  }
