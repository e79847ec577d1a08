module Phase = Dpa_synth.Phase

type result = {
  assignment : Phase.assignment;
  power : float;
  size : int;
  initial_power : float;
  commits : int;
  tuples_considered : int;
}

(* All k-subsets of 0..n-1 in lexicographic order. *)
let subsets n k =
  let acc = ref [] in
  let rec go chosen next remaining =
    if remaining = 0 then acc := List.rev chosen :: !acc
    else
      for v = next to n - remaining do
        go (v :: chosen) (v + 1) (remaining - 1)
      done
  in
  go [] 0 k;
  List.rev !acc

let apply_actions assignment tuple actions =
  let a = Array.copy assignment in
  List.iter2
    (fun i action ->
      match action with
      | Cost.Invert -> a.(i) <- Phase.flip a.(i)
      | Cost.Retain -> ())
    tuple actions;
  a

let run ?(tuple_limit = 5000) ?(vectors_per_tuple = 1) ~k measure ~cost =
  if vectors_per_tuple < 1 then
    invalid_arg "Tuple_search.run: vectors_per_tuple must be positive";
  let n = Cost.num_outputs cost in
  if k < 2 || k > n then
    invalid_arg (Printf.sprintf "Tuple_search.run: k = %d outside [2, %d]" k n);
  let current = ref (Phase.all_positive n) in
  let current_sample = ref (Measure.eval measure !current) in
  let initial_power = !current_sample.Measure.power in
  let cone_means = Cost.averager cost ~base_probs:(Measure.base_probs measure) in
  let averages = ref (Cost.averages_of cost cone_means !current) in
  let candidates =
    let all = subsets n k in
    if List.length all <= tuple_limit then ref all
    else begin
      let gain tuple =
        let retain_cost =
          Cost.k_tuple cost ~averages:!averages
            (List.map (fun i -> (i, Cost.Retain)) tuple)
        in
        let _, best = Cost.best_action_tuple cost ~averages:!averages tuple in
        retain_cost -. best
      in
      let scored = List.map (fun tu -> (gain tu, tu)) all in
      let sorted = List.sort (fun (a, _) (b, _) -> compare b a) scored in
      ref (List.filteri (fun idx _ -> idx < tuple_limit) (List.map snd sorted))
    end
  in
  let tuples_considered = List.length !candidates in
  let commits = ref 0 in
  let finished = ref (!candidates = []) in
  while not !finished do
    let choose (best, all_retain) tuple =
      let actions, cost_value = Cost.best_action_tuple cost ~averages:!averages tuple in
      let retains = List.for_all (fun a -> a = Cost.Retain) actions in
      let best' =
        match best with
        | Some (_, _, bk) when bk <= cost_value -> best
        | Some _ | None -> Some (tuple, actions, cost_value)
      in
      (best', all_retain && retains)
    in
    let best, all_retain = List.fold_left choose (None, true) !candidates in
    match best with
    | None -> finished := true
    | Some _ when all_retain -> finished := true
    | Some (tuple, _, _) ->
      (* measure the tuple's K-ranked action vectors (the argmin when
         vectors_per_tuple = 1), committing every improvement *)
      let ranked = Cost.ranked_action_tuples cost ~averages:!averages tuple in
      let rec try_vectors budget = function
        | [] -> ()
        | (actions, _) :: rest ->
          if budget = 0 then ()
          else begin
            let proposed = apply_actions !current tuple actions in
            if Phase.equal proposed !current then try_vectors budget rest
            else begin
              let sample = Measure.eval measure proposed in
              if sample.Measure.power < !current_sample.Measure.power then begin
                current := proposed;
                current_sample := sample;
                averages := Cost.averages_of cost cone_means !current;
                incr commits
              end;
              try_vectors (budget - 1) rest
            end
          end
      in
      try_vectors vectors_per_tuple ranked;
      candidates := List.filter (fun tu -> tu <> tuple) !candidates;
      if !candidates = [] then finished := true
  done;
  {
    assignment = !current;
    power = !current_sample.Measure.power;
    size = !current_sample.Measure.size;
    initial_power;
    commits = !commits;
    tuples_considered;
  }
