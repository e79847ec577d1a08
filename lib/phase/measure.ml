module Phase = Dpa_synth.Phase
module Par = Dpa_util.Par
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics

let c_evals = (Metrics.counter ~help:"candidate assignments priced" "phase.measure.evaluations")

let c_cache_hits = (Metrics.counter ~help:"assignments answered from the sample cache" "phase.measure.cache_hits")

let c_prefetched =
  Metrics.counter ~help:"assignments priced speculatively by the prefetch fan-out"
    "phase.measure.prefetched"

let c_par_tasks = Metrics.counter ~help:"tasks fanned out to the domain pool" "par.tasks"

let c_par_steals =
  Metrics.counter ~help:"work-stealing operations in the domain pool" "par.steals"

type sample = {
  power : float;
  size : int;
  domino_switching : float;
}

(* What a measurement produces. Degradation is carried alongside the
   sample instead of being recorded eagerly so that a speculative
   prefetch can price a candidate without touching the search-trajectory
   accounting: [degraded_evaluations] and [worst_degradation] only ever
   advance when {!eval} first visits the assignment, in trajectory
   order — identical at any jobs count. *)
type entry = {
  sample : sample;
  degradation : Dpa_power.Engine.degradation option;
}

type t = {
  net : Dpa_logic.Netlist.t;
  library : Dpa_domino.Library.t;
  input_probs : float array;
  budget : Dpa_power.Engine.budget option;
  cancel : Dpa_util.Cancel.t;
  custom_pricer : (t -> Dpa_domino.Mapped.t -> sample) option;
  par : Par.t option;
  cache : (string, entry) Hashtbl.t;  (* priced candidates, incl. speculative *)
  seen : (string, unit) Hashtbl.t;  (* assignments the search actually visited *)
  (* one incremental estimation env per domain: BDD managers are
     single-domain (Robdd ownership), and each env is created inside the
     domain that uses it. All envs share the same assignment-independent
     variable order, so their probabilities are bitwise identical. *)
  envs : (int, Dpa_power.Estimate.env) Hashtbl.t;
  envs_mutex : Mutex.t;
  mutable misses : int;
  mutable degraded : int;
  mutable worst : Dpa_power.Engine.degradation option;
}

let realize_mapped t assignment =
  Dpa_domino.Mapped.map ~library:t.library (Dpa_synth.Inverterless.realize t.net assignment)

(* The shared estimation env is seeded from the all-positive realization —
   not from whichever candidate happens to be measured first — so the
   variable order is assignment-independent and the search deterministic.
   Keyed by domain: the submitting domain and every pool worker get (and
   keep) their own manager. *)
let env_of t =
  let d = (Domain.self () :> int) in
  let existing = Mutex.protect t.envs_mutex (fun () -> Hashtbl.find_opt t.envs d) in
  match existing with
  | Some e -> e
  | None ->
    let n_out = Array.length (Dpa_logic.Netlist.outputs t.net) in
    let all_pos = Array.make n_out Phase.Positive in
    let e =
      Dpa_power.Estimate.make_env ~cancel:t.cancel ~input_probs:t.input_probs
        (realize_mapped t all_pos)
    in
    Mutex.protect t.envs_mutex (fun () -> Hashtbl.replace t.envs d e);
    e

(* Ranks degradation reports so the search can remember its worst case. *)
let more_degraded a b =
  let open Dpa_power.Engine in
  (simulated_cones a, reordered_cones a) > (simulated_cones b, reordered_cones b)

let record_degradation t (d : Dpa_power.Engine.degradation) =
  if not (Dpa_power.Engine.all_exact d) then begin
    t.degraded <- t.degraded + 1;
    match t.worst with
    | None -> t.worst <- Some d
    | Some w -> if more_degraded d w then t.worst <- Some d
  end

(* The budget when candidates are priced by the built-in bounded engine. *)
let engine_budget t =
  match t.custom_pricer, t.budget with
  | None, Some budget when not (Dpa_power.Engine.is_unbounded budget) -> Some budget
  | None, (Some _ | None) | Some _, _ -> None

let engine_entry mapped (r : Dpa_power.Engine.result) =
  let report = r.Dpa_power.Engine.report in
  {
    sample =
      {
        power = report.Dpa_power.Estimate.total;
        size = Dpa_domino.Mapped.size mapped;
        domino_switching = report.Dpa_power.Estimate.domino_switching;
      };
    degradation = Some r.Dpa_power.Engine.degradation;
  }

(* Price one candidate on the calling domain. Safe to run concurrently
   from pool workers: the only shared state it touches is the env table
   (mutex-guarded, one slot per domain). *)
let price t mapped =
  match t.custom_pricer with
  | Some f -> { sample = f t mapped; degradation = None }
  | None -> (
    match engine_budget t with
    | Some budget ->
      (* Every candidate is priced under the same budget policy with a
         deterministic simulator seed, so comparisons between candidates
         stay consistent and greedy descent stays monotone even when some
         cones fall back to simulation. *)
      engine_entry mapped
        (Dpa_power.Engine.estimate ~budget ~cancel:t.cancel ~input_probs:t.input_probs
           mapped)
    | None ->
      let report = Dpa_power.Estimate.of_mapped_env (env_of t) mapped in
      {
        sample =
          {
            power = report.Dpa_power.Estimate.total;
            size = Dpa_domino.Mapped.size mapped;
            domino_switching = report.Dpa_power.Estimate.domino_switching;
          };
        degradation = None;
      })

let create ?(library = Dpa_domino.Library.default) ?budget
    ?(cancel = Dpa_util.Cancel.none) ?pricer ?par ~input_probs net =
  if not (Dpa_synth.Opt.is_domino_ready net) then
    invalid_arg "Measure.create: netlist contains XOR; run Opt.optimize first";
  if Array.length input_probs <> Dpa_logic.Netlist.num_inputs net then
    invalid_arg "Measure.create: input_probs length mismatch";
  {
    net;
    library;
    input_probs;
    budget;
    cancel;
    custom_pricer = Option.map (fun f t mapped -> (ignore t; f mapped)) pricer;
    par;
    cache = Hashtbl.create 64;
    seen = Hashtbl.create 64;
    envs = Hashtbl.create 4;
    envs_mutex = Mutex.create ();
    misses = 0;
    degraded = 0;
    worst = None;
  }

let eval t assignment =
  Dpa_util.Cancel.check t.cancel;
  let key = Phase.to_string assignment in
  if Hashtbl.mem t.seen key then begin
    Metrics.incr c_cache_hits;
    (Hashtbl.find t.cache key).sample
  end
  else begin
    (* first visit on the search trajectory: counts as an evaluation
       whether the price comes from a speculative prefetch or is
       computed here — both yield the same entry, so every counter and
       degradation record is independent of the speculation schedule *)
    Hashtbl.replace t.seen key ();
    t.misses <- t.misses + 1;
    Metrics.incr c_evals;
    let entry =
      match Hashtbl.find_opt t.cache key with
      | Some e -> e
      | None ->
        let e =
          Trace.with_span "phase.measure.eval" @@ fun () ->
          if Trace.is_enabled () then Trace.add_args [ ("phases", Trace.Str key) ];
          price t (realize_mapped t assignment)
        in
        Hashtbl.replace t.cache key e;
        e
    in
    Option.iter (record_degradation t) entry.degradation;
    entry.sample
  end

(* How wide the greedy search should speculate: the pool's job count
   when speculative pricing is known-safe, 1 (no speculation) otherwise.
   A custom pricer is opaque — it may close over single-domain state —
   so it disables the fan-out but not the search itself. *)
let parallel_jobs t =
  match t.par, t.custom_pricer with
  | Some pool, None -> Par.jobs pool
  | Some _, Some _ | None, _ -> 1

let prefetch t assignments =
  match t.par, t.custom_pricer with
  | None, _ | Some _, Some _ -> ()
  | Some pool, None ->
    (* dedup (two pairs can propose the same flip) and drop anything
       already priced; order is irrelevant — entries are keyed merges *)
    let todo = Hashtbl.create 16 in
    List.iter
      (fun a ->
        let key = Phase.to_string a in
        if not (Hashtbl.mem t.cache key || Hashtbl.mem todo key) then
          Hashtbl.replace todo key a)
      assignments;
    if Hashtbl.length todo > 0 then begin
      let work =
        Array.of_seq (Seq.map (fun (k, a) -> (k, a)) (Hashtbl.to_seq todo))
      in
      let before = Par.stats pool in
      let entries =
        Par.map pool (Array.length work) (fun i ->
            let _, assignment = work.(i) in
            Trace.with_span "phase.measure.prefetch"
              ~args:[ ("domain", Trace.Int (Domain.self () :> int)) ]
            @@ fun () ->
            price t (realize_mapped t assignment))
      in
      let after = Par.stats pool in
      Metrics.add c_par_tasks (after.Par.tasks - before.Par.tasks);
      Metrics.add c_par_steals (after.Par.steals - before.Par.steals);
      Metrics.add c_prefetched (Array.length work);
      Array.iteri (fun i e -> Hashtbl.replace t.cache (fst work.(i)) e) entries
    end

let prime t assignment mapped result =
  let key = Phase.to_string assignment in
  if engine_budget t <> None && not (Hashtbl.mem t.cache key) then
    Hashtbl.replace t.cache key (engine_entry mapped result)

let priced t assignment =
  match Hashtbl.find_opt t.cache (Phase.to_string assignment) with
  | Some { sample; degradation = Some d } -> Some (sample, d)
  | Some { degradation = None; _ } | None -> None

let evaluations t = t.misses

let degraded_evaluations t = t.degraded

let worst_degradation t = t.worst

let publish_metrics t =
  Mutex.protect t.envs_mutex @@ fun () ->
  Hashtbl.iter
    (fun _ e -> Dpa_bdd.Robdd.publish_metrics (Dpa_power.Estimate.env_manager e))
    t.envs
