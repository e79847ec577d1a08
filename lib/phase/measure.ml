module Phase = Dpa_synth.Phase
module Par = Dpa_util.Par
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics

let c_evals = (Metrics.counter ~help:"candidate assignments priced" "phase.measure.evaluations")

let c_cache_hits = (Metrics.counter ~help:"assignments answered from the sample cache" "phase.measure.cache_hits")

let c_prefetched =
  Metrics.counter ~help:"assignments priced ahead across the pool by the prefetch fan-out"
    "phase.measure.prefetched"

let c_par_tasks = Metrics.counter ~help:"tasks fanned out to the domain pool" "par.tasks"

let c_par_steals =
  Metrics.counter ~help:"tasks run by worker domains of the domain pool (0 at width 1)"
    "par.steals"

type sample = {
  power : float;
  size : int;
  domino_switching : float;
}

(* What a measurement produces. Degradation is carried alongside the
   sample instead of being recorded eagerly so that a prefetch, a prime
   or [base_probs] can price a candidate without touching the
   search-trajectory accounting: [degraded_evaluations] and
   [worst_degradation] only ever advance when {!eval} first visits the
   assignment, in trajectory order — identical at any jobs count. *)
type entry = {
  sample : sample;
  degradation : Dpa_power.Engine.degradation option;
}

(* How candidates are priced, fixed at creation from the request and the
   library. *)
type pricing =
  | Pricer of (Dpa_domino.Mapped.t -> sample)  (* opaque, caller-supplied *)
  | Engine of Dpa_power.Engine.budget
    (* one Engine.estimate per candidate: under a bounded budget, or under
       compound cells — absorption reads each block's fanout counts — with
       the unbounded one, which is Estimate.of_mapped *)
  | Table  (* summed from the slot table *)

type t = {
  net : Dpa_logic.Netlist.t;
  library : Dpa_domino.Library.t;
  input_probs : float array;
  cancel : Dpa_util.Cancel.t;
  pricing : pricing;
  par : Par.t option;
  cache : (string, entry) Hashtbl.t;  (* priced candidates, visited or not *)
  seen : (string, unit) Hashtbl.t;  (* assignments the search actually visited *)
  (* the slot table, built on first use on the calling domain (BDD
     managers are single-domain) *)
  mutable table : Dpa_power.Estimate.table option;
  (* the all-positive block's original-node probabilities, the only
     per-node vector kept (see {!base_probs}) *)
  mutable base : float array option;
  mutable misses : int;
  mutable degraded : int;
  mutable worst : Dpa_power.Engine.degradation option;
}

let realize_mapped t assignment =
  Dpa_domino.Mapped.map ~library:t.library (Dpa_synth.Inverterless.realize t.net assignment)

let all_positive t = Phase.all_positive (Dpa_logic.Netlist.num_outputs t.net)

let table_of t =
  match t.table with
  | Some tb -> tb
  | None ->
    Trace.with_span "phase.measure.table" @@ fun () ->
    let tb =
      Dpa_power.Estimate.table ~cancel:t.cancel ~input_probs:t.input_probs t.library t.net
    in
    Trace.add_args
      [
        ("slots", Trace.Int (Dpa_power.Estimate.table_slots tb));
        ("cells", Trace.Int (Dpa_power.Estimate.table_cells tb));
        ("bdd_nodes", Trace.Int (Dpa_power.Estimate.table_bdd_nodes tb));
      ];
    t.table <- Some tb;
    tb

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

(* The base probabilities read off a priced block, when it is the
   all-positive one; [None] for every other candidate, so no per-node
   vector is kept per cached candidate. *)
let original t mapped (report : Dpa_power.Estimate.report) =
  Dpa_power.Estimate.original_probabilities t.net ~input_probs:t.input_probs mapped
    ~node_probs:report.Dpa_power.Estimate.node_probs

let block_base t assignment mapped report =
  if Phase.count_negative assignment > 0 then None else Some (original t mapped report)

let keep_base t = function
  | Some b when Option.is_none t.base -> t.base <- Some b
  | Some _ | None -> ()

(* Price one candidate, with its base probabilities when it is the
   all-positive block ({!block_base}). [par] spreads a bounded
   estimate's shards; the engine's answer is the same without it. Only
   the bounded engine runs on pool workers (see {!prefetch}, which
   passes no pool): it touches no state of [t]. *)
let price ?par t assignment =
  match t.pricing with
  | Pricer f -> ({ sample = f (realize_mapped t assignment); degradation = None }, None)
  | Engine budget ->
    (* Every candidate is priced under the same budget policy with a
       deterministic simulator seed, so comparisons between candidates
       stay consistent and greedy descent stays monotone even when some
       cones fall back to simulation. *)
    let mapped = realize_mapped t assignment in
    let r =
      Dpa_power.Engine.estimate ?par ~budget ~cancel:t.cancel ~input_probs:t.input_probs
        mapped
    in
    (engine_entry mapped r, block_base t assignment mapped r.Dpa_power.Engine.report)
  | Table ->
    let p = Dpa_power.Estimate.of_table (table_of t) assignment in
    ( {
        sample =
          {
            power = p.Dpa_power.Estimate.power;
            size = p.Dpa_power.Estimate.size;
            domino_switching = p.Dpa_power.Estimate.switching;
          };
        degradation = None;
      },
      None )

let create ?(library = Dpa_domino.Library.default) ?budget
    ?(cancel = Dpa_util.Cancel.none) ?pricer ?par ~input_probs net =
  if not (Dpa_synth.Opt.is_domino_ready net) then
    invalid_arg "Measure.create: netlist contains XOR; run Opt.optimize first";
  if Array.length input_probs <> Dpa_logic.Netlist.num_inputs net then
    invalid_arg "Measure.create: input_probs length mismatch";
  let pricing =
    match pricer, budget with
    | Some f, _ -> Pricer f
    | None, Some b when not (Dpa_power.Engine.is_unbounded b) -> Engine b
    | None, (Some _ | None) ->
      if Dpa_domino.Mapped.absorbs library then Engine Dpa_power.Engine.default_budget
      else Table
  in
  {
    net;
    library;
    input_probs;
    cancel;
    pricing;
    par;
    cache = Hashtbl.create 64;
    seen = Hashtbl.create 64;
    table = None;
    base = None;
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
    let entry =
      match Hashtbl.find_opt t.cache key with
      | Some e -> e
      | None ->
        let e, base =
          Trace.with_span "phase.measure.eval" @@ fun () ->
          if Trace.is_enabled () then Trace.add_args [ ("phases", Trace.Str key) ];
          price ?par:t.par t assignment
        in
        keep_base t base;
        Hashtbl.replace t.cache key e;
        e
    in
    (* first visit on the search trajectory, marked only once the price
       is in, so a price that raised leaves nothing half-recorded: counts
       as an evaluation whether the price was stored ahead (prefetch,
       prime, base_probs) or is computed here — both yield the same
       entry, so every counter and degradation record is independent of
       the pool *)
    Hashtbl.replace t.seen key ();
    t.misses <- t.misses + 1;
    Metrics.incr c_evals;
    Option.iter (record_degradation t) entry.degradation;
    entry.sample
  end

(* Exhaustive search visits every candidate, so pricing its enumeration
   ahead across the pool wastes nothing. The distinct unpriced
   candidates run as one [Par.map] region, and each task estimates
   without the pool, because [Par.map] rejects nesting. Entries are
   keyed merges, so the order tasks finish in is irrelevant. *)
let prefetch t assignments =
  match t.par, t.pricing with
  | Some pool, Engine budget
    when Par.jobs pool > 1 && not (Dpa_power.Engine.is_unbounded budget) ->
    let todo = Hashtbl.create 64 in
    Seq.iter
      (fun a ->
        let key = Phase.to_string a in
        if not (Hashtbl.mem t.cache key) then Hashtbl.replace todo key a)
      assignments;
    let work = Array.of_seq (Hashtbl.to_seq todo) in
    if Array.length work > 0 then begin
      let before = Par.stats pool in
      let entries =
        Par.map pool (Array.length work) (fun i ->
            let _, assignment = work.(i) in
            Trace.with_span "phase.measure.prefetch"
              ~args:[ ("domain", Trace.Int (Domain.self () :> int)) ]
            @@ fun () -> price t assignment)
      in
      let after = Par.stats pool in
      Metrics.add c_par_tasks (after.Par.tasks - before.Par.tasks);
      Metrics.add c_par_steals (after.Par.steals - before.Par.steals);
      Metrics.add c_prefetched (Array.length work);
      Array.iteri
        (fun i (e, base) ->
          keep_base t base;
          Hashtbl.replace t.cache (fst work.(i)) e)
        entries
    end
  | Some _, (Pricer _ | Table | Engine _) | None, _ -> ()

let prime t assignment mapped result =
  let key = Phase.to_string assignment in
  match t.pricing with
  | Engine _ ->
    if not (Hashtbl.mem t.cache key) then begin
      Hashtbl.replace t.cache key (engine_entry mapped result);
      keep_base t (block_base t assignment mapped result.Dpa_power.Engine.report)
    end
  | Pricer _ | Table -> ()

let base_probs t =
  match t.base with
  | Some b -> b
  | None ->
    let b =
      match t.pricing with
      | Pricer _ ->
        (* the custom pricer's sample is opaque: read the all-positive
           block's exact estimate *)
        let mapped = realize_mapped t (all_positive t) in
        original t mapped
          (Dpa_power.Estimate.of_mapped ~cancel:t.cancel ~input_probs:t.input_probs mapped)
      | Table -> Dpa_power.Estimate.table_original_probabilities (table_of t)
      | Engine _ ->
        (* every price of the all-positive block keeps its vector, so it
           is unpriced: price it now, as a prefetch would — the search
           counts it only if it visits it *)
        let a = all_positive t in
        let e, base = price ?par:t.par t a in
        Hashtbl.replace t.cache (Phase.to_string a) e;
        Option.get base
    in
    t.base <- Some b;
    b

let priced t assignment =
  match Hashtbl.find_opt t.cache (Phase.to_string assignment) with
  | Some { sample; degradation = Some d } -> Some (sample, d)
  | Some { degradation = None; _ } | None -> None

let evaluations t = t.misses

let degraded_evaluations t = t.degraded

let worst_degradation t = t.worst
