module Phase = Dpa_synth.Phase
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics

let c_committed = (Metrics.counter ~help:"greedy moves that lowered measured power" "phase.greedy.moves_committed")

let c_rejected = (Metrics.counter ~help:"greedy moves measured but not committed" "phase.greedy.moves_rejected")

type step = {
  pair : int * int;
  actions : Cost.action * Cost.action;
  predicted_cost : float;
  measured_power : float option;
  committed : bool;
}

type result = {
  assignment : Phase.assignment;
  power : float;
  size : int;
  initial_power : float;
  commits : int;
  steps : step list;
}

let apply_actions assignment (i, ai) (j, aj) =
  let a = Array.copy assignment in
  (match ai with Cost.Invert -> a.(i) <- Phase.flip a.(i) | Cost.Retain -> ());
  (match aj with Cost.Invert -> a.(j) <- Phase.flip a.(j) | Cost.Retain -> ());
  a

let all_pairs n =
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      acc := (i, j) :: !acc
    done
  done;
  !acc

(* Predicted gain of a pair: how much K improves over retaining both. *)
let gain cost ~averages (i, j) =
  let _, _, best = Cost.best_action_pair cost ~averages i j in
  Cost.k cost ~averages i Cost.Retain j Cost.Retain -. best

type state = {
  measure : Measure.t;
  cost : Cost.t;
  cone_means : Cost.averager;
  mutable current : Phase.assignment;
  mutable current_sample : Measure.sample;
  mutable averages : float array;
  mutable candidates : (int * int) list;
  mutable commits : int;
  mutable steps : step list;
  mutable passes : int;
  mutable finished : bool;
}

(* One iteration: pick the global minimum-K pair (earlier candidate wins
   ties), measure its proposal if it changes anything, commit when
   measured power improves, and drop the pair either way. *)
let pass st =
  st.passes <- st.passes + 1;
  Trace.with_span "phase.greedy.pass"
    ~args:
      [ ("pass", Trace.Int st.passes); ("candidates", Trace.Int (List.length st.candidates)) ]
  @@ fun () ->
  let choose (best, all_retain) ((i, j) as p) =
    let ai, aj, k = Cost.best_action_pair st.cost ~averages:st.averages i j in
    let retains = ai = Cost.Retain && aj = Cost.Retain in
    let best' =
      match best with
      | Some (_, _, bk) when bk <= k -> best
      | Some _ | None -> Some (p, (ai, aj), k)
    in
    (best', all_retain && retains)
  in
  let best, all_retain = List.fold_left choose (None, true) st.candidates in
  match best with
  | None -> st.finished <- true
  | Some _ when all_retain ->
    (* no remaining pair proposes a change: nothing can ever commit *)
    st.finished <- true
  | Some (((i, j) as pair), ((ai, aj) as actions), k) ->
    let proposed = apply_actions st.current (i, ai) (j, aj) in
    let step =
      if Phase.equal proposed st.current then
        { pair; actions; predicted_cost = k; measured_power = None; committed = false }
      else begin
        let sample = Measure.eval st.measure proposed in
        let better = sample.Measure.power < st.current_sample.Measure.power in
        Metrics.incr (if better then c_committed else c_rejected);
        if better then begin
          st.current <- proposed;
          st.current_sample <- sample;
          st.averages <- Cost.averages_of st.cost st.cone_means st.current;
          st.commits <- st.commits + 1
        end;
        {
          pair;
          actions;
          predicted_cost = k;
          measured_power = Some sample.Measure.power;
          committed = better;
        }
      end
    in
    st.steps <- step :: st.steps;
    st.candidates <- List.filter (fun p -> p <> pair) st.candidates;
    if st.candidates = [] then st.finished <- true

let run ?pair_limit measure ~cost =
  let n = Cost.num_outputs cost in
  let current = Phase.all_positive n in
  let current_sample = Measure.eval measure current in
  let initial_power = current_sample.Measure.power in
  let cone_means = Cost.averager cost ~base_probs:(Measure.base_probs measure) in
  let averages = Cost.averages_of cost cone_means current in
  let candidates =
    let pairs = all_pairs n in
    match pair_limit with
    | None -> pairs
    | Some limit ->
      let scored = List.map (fun p -> (gain cost ~averages p, p)) pairs in
      let sorted = List.sort (fun (a, _) (b, _) -> compare b a) scored in
      List.filteri (fun k _ -> k < limit) (List.map snd sorted)
  in
  let st =
    {
      measure;
      cost;
      cone_means;
      current;
      current_sample;
      averages;
      candidates;
      commits = 0;
      steps = [];
      passes = 0;
      finished = candidates = [];
    }
  in
  while not st.finished do
    pass st
  done;
  {
    assignment = st.current;
    power = st.current_sample.Measure.power;
    size = st.current_sample.Measure.size;
    initial_power;
    commits = st.commits;
    steps = List.rev st.steps;
  }
