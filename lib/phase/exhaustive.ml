module Phase = Dpa_synth.Phase

type result = {
  assignment : Phase.assignment;
  power : float;
  size : int;
  evaluated : int;
}

let run measure ~num_outputs =
  let best = ref None in
  let evaluated = ref 0 in
  (* every candidate is visited, so price them all ahead across the
     measure's pool; the scan below then answers from its cache, in
     enumeration order, so the argmin tie-break is unchanged *)
  Measure.prefetch measure (Phase.enumerate ~num_outputs);
  Seq.iter
    (fun a ->
      let s = Measure.eval measure a in
      incr evaluated;
      let better =
        match !best with
        | None -> true
        | Some (_, bs) ->
          s.Measure.power < bs.Measure.power
          || (s.Measure.power = bs.Measure.power && s.Measure.size < bs.Measure.size)
      in
      if better then best := Some (a, s))
    (Phase.enumerate ~num_outputs);
  match !best with
  | None -> invalid_arg "Exhaustive.run: no outputs to assign"
  | Some (a, s) ->
    { assignment = a; power = s.Measure.power; size = s.Measure.size; evaluated = !evaluated }
