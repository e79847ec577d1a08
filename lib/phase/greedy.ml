module Phase = Dpa_synth.Phase
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics

let c_committed = (Metrics.counter ~help:"greedy moves that lowered measured power" "phase.greedy.moves_committed")

let c_rejected = (Metrics.counter ~help:"greedy moves measured but not committed" "phase.greedy.moves_rejected")

type initial =
  [ `All_positive | `Random of Dpa_util.Rng.t | `Given of Phase.assignment ]

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

(* Mutable search state shared by the sequential loop and the
   speculative replay: both drive exactly the same trajectory. *)
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

let remove_candidate st pair =
  st.candidates <- List.filter (fun p -> p <> pair) st.candidates;
  if st.candidates = [] then st.finished <- true

let commit_move st ~proposed ~sample =
  st.current <- proposed;
  st.current_sample <- sample;
  st.averages <- Cost.averages_of st.cost st.cone_means st.current;
  st.commits <- st.commits + 1

(* One sequential iteration: pick the global minimum-K pair (earlier
   candidate wins ties), measure its proposal if it changes anything,
   commit when measured power improves. *)
let sequential_pass st =
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
        if better then commit_move st ~proposed ~sample;
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
    remove_candidate st pair

(* Speculative replay: between commits the cone averages are frozen, so
   the sequential search's successive argmins over the shrinking
   candidate list are exactly the remaining candidates in a stable sort
   by (K, original position) — [List.stable_sort] with [Float.compare]
   reproduces the fold's earlier-wins tie-break. We therefore rank once,
   prefetch the next [jobs] distinct proposals across the pool, and
   replay the ranked list in order: every eval, step, commit and removal
   happens in the same order as the sequential loop, so the trajectory —
   and with it every measured float, counter and the final assignment —
   is bit-identical at any jobs count. A commit invalidates the ranking
   (averages move), so we stop, re-rank, and speculate again. *)
let replay_pass ~jobs st =
  let ranked =
    List.map
      (fun ((i, j) as p) ->
        let ai, aj, k = Cost.best_action_pair st.cost ~averages:st.averages i j in
        (p, (ai, aj), k))
      st.candidates
  in
  let nonretain =
    List.fold_left
      (fun acc (_, (ai, aj), _) ->
        if ai = Cost.Retain && aj = Cost.Retain then acc else acc + 1)
      0 ranked
  in
  if ranked = [] then st.finished <- true
  else if nonretain = 0 then begin
    (* the sequential loop burns one pass discovering all_retain *)
    st.passes <- st.passes + 1;
    Trace.with_span "phase.greedy.pass"
      ~args:
        [ ("pass", Trace.Int st.passes);
          ("candidates", Trace.Int (List.length st.candidates));
        ]
      (fun () -> ());
    st.finished <- true
  end
  else begin
    let sorted =
      List.stable_sort (fun (_, _, k1) (_, _, k2) -> Float.compare k1 k2) ranked
    in
    let elems =
      List.map
        (fun (((i, j) as pair), ((ai, aj) as actions), k) ->
          let noop = ai = Cost.Retain && aj = Cost.Retain in
          (pair, actions, k, apply_actions st.current (i, ai) (j, aj), noop))
        sorted
    in
    let measurable_ahead elems =
      let rec take n = function
        | _ when n = 0 -> []
        | [] -> []
        | (_, _, _, proposed, noop) :: rest ->
          if noop then take n rest else proposed :: take (n - 1) rest
      in
      take jobs elems
    in
    (* [covered] counts measurable elements already included in a
       prefetch window; when it runs out we speculate another window *)
    let rec walk elems nonretain_left covered =
      match elems with
      | [] -> st.finished <- true
      | _ when nonretain_left = 0 ->
        (* remaining candidates all retain: sequential would discover
           all_retain on its next pass and finish without stepping them *)
        st.passes <- st.passes + 1;
        Trace.with_span "phase.greedy.pass"
          ~args:
            [ ("pass", Trace.Int st.passes);
              ("candidates", Trace.Int (List.length st.candidates));
            ]
          (fun () -> ());
        st.finished <- true
      | ((pair, actions, k, proposed, noop) as elem) :: rest ->
        st.passes <- st.passes + 1;
        let continue_ =
          Trace.with_span "phase.greedy.pass"
            ~args:
              [ ("pass", Trace.Int st.passes);
                ("candidates", Trace.Int (List.length st.candidates));
              ]
          @@ fun () ->
          if noop then begin
            st.steps <-
              { pair; actions; predicted_cost = k; measured_power = None; committed = false }
              :: st.steps;
            remove_candidate st pair;
            Some (nonretain_left, covered)
          end
          else begin
            let covered =
              if covered > 0 then covered
              else begin
                let window = measurable_ahead (elem :: rest) in
                Measure.prefetch st.measure window;
                List.length window
              end
            in
            let sample = Measure.eval st.measure proposed in
            let better = sample.Measure.power < st.current_sample.Measure.power in
            Metrics.incr (if better then c_committed else c_rejected);
            st.steps <-
              {
                pair;
                actions;
                predicted_cost = k;
                measured_power = Some sample.Measure.power;
                committed = better;
              }
              :: st.steps;
            remove_candidate st pair;
            if better then begin
              commit_move st ~proposed ~sample;
              None (* averages moved: re-rank before touching anything else *)
            end
            else Some (nonretain_left - 1, covered - 1)
          end
        in
        match continue_ with
        | Some (nl, cov) -> walk rest nl cov
        | None -> ()
    in
    walk elems nonretain 0
  end

let run ?(initial = `All_positive) ?pair_limit measure ~cost =
  let n = Cost.num_outputs cost in
  let current =
    match initial with
    | `All_positive -> Phase.all_positive n
    | `Random rng -> Phase.random rng ~num_outputs:n
    | `Given a ->
      if Array.length a <> n then invalid_arg "Greedy.run: initial assignment length";
      Array.copy a
  in
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
  let jobs = Measure.parallel_jobs measure in
  while not st.finished do
    if jobs <= 1 then sequential_pass st else replay_pass ~jobs st
  done;
  {
    assignment = st.current;
    power = st.current_sample.Measure.power;
    size = st.current_sample.Measure.size;
    initial_power;
    commits = st.commits;
    steps = List.rev st.steps;
  }
