module Netlist = Dpa_logic.Netlist
module Mapped = Dpa_domino.Mapped
module Robdd = Dpa_bdd.Robdd
module Build = Dpa_bdd.Build
module Bitset = Dpa_util.Bitset
module Dpa_error = Dpa_util.Dpa_error
module Par = Dpa_util.Par

type fallback = No_fallback | Reorder_retry | Simulate

type budget = {
  max_bdd_nodes : int option;
  deadline_s : float option;
  fallback : fallback;
  sim_halfwidth : float;
  reorder_passes : int;
}

let default_budget =
  {
    max_bdd_nodes = None;
    deadline_s = None;
    fallback = Simulate;
    sim_halfwidth = 0.01;
    reorder_passes = 2;
  }

let bounded ?max_bdd_nodes ?deadline_s ?(fallback = Simulate) () =
  { default_budget with max_bdd_nodes; deadline_s; fallback }

let is_unbounded b = b.max_bdd_nodes = None && b.deadline_s = None

let fallback_of_string = function
  | "none" -> Some No_fallback
  | "reorder" -> Some Reorder_retry
  | "sim" -> Some Simulate
  | _ -> None

let fallback_to_string = function
  | No_fallback -> "none"
  | Reorder_retry -> "reorder"
  | Simulate -> "sim"

let sim_seed = 1

(* the two-sided normal quantile of the 95% confidence level *)
let z_95 = 1.960

let sim_cycles_of b =
  let h = Float.max b.sim_halfwidth 1e-4 in
  (* worst-case binomial: halfwidth = z·√(p(1−p)/n) ≤ z/(2√n) *)
  let n = int_of_float (Float.ceil ((z_95 /. (2.0 *. h)) ** 2.0)) in
  max 1_000 (min 200_000 n)

let ci_halfwidth_of cycles = z_95 /. (2.0 *. sqrt (float_of_int cycles))

(* ------------------------------------------------------------------ *)
(* Degradation report                                                   *)
(* ------------------------------------------------------------------ *)

type cone_method = Exact | Reordered | Simulated

let cone_method_to_string = function
  | Exact -> "exact"
  | Reordered -> "reordered"
  | Simulated -> "simulated"

type degradation = {
  methods : cone_method array;
  bdd_nodes : int;
  sim_cycles : int;
  ci_halfwidth : float;
}

let count_method methods m = Array.fold_left (fun n x -> if x = m then n + 1 else n) 0 methods

let exact_cones d = count_method d.methods Exact

let reordered_cones d = count_method d.methods Reordered

let simulated_cones d = count_method d.methods Simulated

let all_exact d = Array.for_all (fun m -> m = Exact) d.methods

let exact_degradation ~n_outputs ~bdd_nodes =
  {
    methods = Array.make n_outputs Exact;
    bdd_nodes;
    sim_cycles = 0;
    ci_halfwidth = 0.0;
  }

let degradation_to_string d =
  if all_exact d then Printf.sprintf "exact (%d BDD nodes)" d.bdd_nodes
  else
    Printf.sprintf "%d exact / %d reordered / %d simulated of %d cones (%d BDD nodes%s)"
      (exact_cones d) (reordered_cones d) (simulated_cones d) (Array.length d.methods)
      d.bdd_nodes
      (if d.sim_cycles = 0 then ""
       else Printf.sprintf ", %d sim cycles, ±%.4f CI" d.sim_cycles d.ci_halfwidth)

let degradation_label d =
  if all_exact d then "exact"
  else
    Printf.sprintf "%dex+%dre+%dsim" (exact_cones d) (reordered_cones d) (simulated_cones d)

type result = {
  report : Estimate.report;
  degradation : degradation;
}

(* ------------------------------------------------------------------ *)
(* Observability cells (resolved lazily; see DESIGN.md §9 for names)    *)
(* ------------------------------------------------------------------ *)

module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics

(* eager registration: forcing a [lazy] cell concurrently from two
   service worker domains is a race; registering at module init is not *)
let oc name help = Metrics.counter ~help name

let c_estimates = oc "engine.estimates" "power estimates run through the engine"

let c_exact = oc "engine.cones.exact" "output cones priced exactly"

let c_reordered = oc "engine.cones.reordered" "output cones priced by the retry rung"

let c_simulated = oc "engine.cones.simulated" "output cones priced by Monte-Carlo fallback"

let c_sim_cycles = oc "engine.sim_cycles" "Monte-Carlo cycles spent in fallbacks"

let g_budget_remaining =
  Metrics.gauge ~help:"BDD node budget left after the last cone build"
    "engine.budget.nodes_remaining"

let c_par_tasks = oc "par.tasks" "tasks fanned out to the domain pool"

let c_par_steals =
  oc "par.steals" "tasks run by worker domains of the domain pool (0 at width 1)"

(* The pool itself sits below Dpa_obs, so it only keeps raw counters;
   every layer that runs a region folds the growth into the registry. *)
let publish_par_stats pool (before : Par.stats) =
  let after = Par.stats pool in
  Metrics.add c_par_tasks (after.Par.tasks - before.Par.tasks);
  Metrics.add c_par_steals (after.Par.steals - before.Par.steals)

(* ------------------------------------------------------------------ *)
(* The ladder                                                           *)
(* ------------------------------------------------------------------ *)

let count_ok ok = Array.fold_left (fun n b -> if b then n + 1 else n) 0 ok

(* Output cones are partitioned into at most [max_shards] shards by a
   greedy overlap heuristic, and each shard builds all its cones in ONE
   manager — the Brace/Rudell thread-local discipline at shard rather
   than cone granularity, so cross-cone sharing survives inside a shard.
   The plan is a pure function of the cones (never of the pool width or
   its schedule), which is what makes every [jobs] count — and no pool
   at all — produce the same managers, the same [bdd_nodes] and
   bit-identical probabilities. *)
let max_shards = 16

(* Big cones first; each joins the shard whose accumulated support it
   overlaps most, under a soft load cap of twice the ideal per-shard
   share (ignored only when every shard is over it). Ties break to the
   lighter, then lower-numbered shard. Returns the shard id per cone. *)
let plan_shards ~n_shards cones =
  let n = Array.length cones in
  let shard_of = Array.make n 0 in
  if n_shards > 1 && n > 1 then begin
    let universe = Bitset.universe_size cones.(0) in
    let total = Array.fold_left (fun acc c -> acc + Bitset.cardinal c) 0 cones in
    let load_cap = 2 * ((total + n_shards - 1) / n_shards) in
    let by_size = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let ca = Bitset.cardinal cones.(a) and cb = Bitset.cardinal cones.(b) in
        if ca <> cb then compare cb ca else compare a b)
      by_size;
    let unions = Array.init n_shards (fun _ -> Bitset.create universe) in
    let loads = Array.make n_shards 0 in
    Array.iter
      (fun k ->
        let cone = cones.(k) in
        let pick under_cap_only =
          let best = ref (-1) and best_ov = ref (-1) and best_ld = ref max_int in
          for s = 0 to n_shards - 1 do
            if (not under_cap_only) || loads.(s) < load_cap then begin
              let ov = Bitset.inter_cardinal cone unions.(s) in
              if ov > !best_ov || (ov = !best_ov && loads.(s) < !best_ld) then begin
                best := s;
                best_ov := ov;
                best_ld := loads.(s)
              end
            end
          done;
          !best
        in
        let s = match pick true with -1 -> pick false | s -> s in
        shard_of.(k) <- s;
        Bitset.union_into unions.(s) cone;
        loads.(s) <- loads.(s) + Bitset.cardinal cone)
      by_size
  end;
  shard_of

(* Attempt every cone of [members] that [ok] marks unbuilt, in order,
   recording successes into [ok]. Each cone is protected individually, so
   one hostile cone cannot take down its siblings (they still profit from
   whatever sharing was interned before exhaustion). The cap bounds the
   manager's live node count — the same [max_bdd_nodes] for rung 1 and
   for the collecting retry. *)
let build_cones ~budget ~deadline ~cancel ~cones ~rung b members ok =
  let m = Build.manager b in
  Array.iteri
    (fun t k ->
      if not ok.(t) then begin
        Robdd.set_budget ?max_nodes:budget.max_bdd_nodes ?deadline ~cancel
          ~context:(Printf.sprintf "output cone %d (%s)" k rung)
          m;
        let built =
          Trace.with_span "engine.cone"
            ~args:[ ("cone", Trace.Int k); ("rung", Trace.Str rung) ]
          @@ fun () ->
          if Dpa_util.Fault.fire Dpa_util.Fault.Slow_cone then
            Dpa_util.Fault.sleep ~cancel Dpa_util.Fault.Slow_cone;
          match Build.build b ~within:(Bitset.mem cones.(k)) with
          | () ->
            Trace.add_args [ ("built", Trace.Bool true) ];
            true
          | exception Dpa_error.Budget_exceeded _ ->
            Trace.add_args [ ("built", Trace.Bool false) ];
            false
        in
        Robdd.clear_budget m;
        (match budget.max_bdd_nodes with
        | Some cap ->
          let remaining = float_of_int (max 0 (cap - Robdd.live_nodes m)) in
          Metrics.set g_budget_remaining remaining;
          if Trace.is_enabled () then
            Trace.counter "engine.budget" [ ("nodes_remaining", remaining) ]
        | None -> ());
        ok.(t) <- built
      end)
    members

(* What one shard hands back — across a domain boundary when a pool runs
   it: plain data only, the shard's manager dies with the task. [sb_probs]
   has [Float.nan] wherever the (possibly partial) build did not reach. *)
type shard_build = {
  sb_ok0 : bool array;  (* rung-1 success, parallel to the member array *)
  sb_okf : bool array;  (* after the in-shard collecting retry *)
  sb_nodes : int;  (* peak live manager nodes *)
  sb_probs : float array;
}

let retries budget = budget.fallback <> No_fallback && budget.reorder_passes > 0

(* Rung 2: the shard's build switches into collecting mode
   ({!Build.collecting}) over the union of its failed cones, and retries
   them in the same manager under the same order and cap. A node-cap stop
   frees every node no later node can read and retries that node once.
   Rung 1 does not collect; DESIGN.md §16 says why. *)
let retry_failed ~budget ~deadline ~cancel ~input_probs ~cones ~members b ok0 =
  Trace.with_span "engine.retry" @@ fun () ->
  let union = Bitset.create (Bitset.universe_size cones.(members.(0))) in
  Array.iteri (fun t k -> if not ok0.(t) then Bitset.union_into union cones.(k)) members;
  let probs = Build.collecting b ~input_probs ~within:(Bitset.mem union) in
  let okf = Array.copy ok0 in
  build_cones ~budget ~deadline ~cancel ~cones ~rung:"retry" b members okf;
  let s = Robdd.stats (Build.manager b) in
  Trace.instant "engine.ladder.retry"
    ~args:
      [
        ("collections", Trace.Int s.Robdd.collections);
        ("freed", Trace.Int s.Robdd.nodes_freed);
        ("peak_live", Trace.Int (Robdd.total_nodes (Build.manager b)));
        ("rescued", Trace.Int (count_ok okf - count_ok ok0));
      ];
  (okf, probs)

(* One shard, one manager, built in whatever domain runs it. A shard with
   failures retries them right here, so no manager ever crosses a
   domain. *)
let build_shard ~budget ~deadline ~cancel ~order ~input_probs ~cones ~members mapped =
  Trace.with_span "engine.shard"
    ~args:
      [
        ("cones", Trace.Int (Array.length members));
        ("domain", Trace.Int (Domain.self () :> int));
      ]
  @@ fun () ->
  let b = Estimate.start_build ?max_nodes:budget.max_bdd_nodes ~order mapped in
  let ok0 = Array.make (Array.length members) false in
  build_cones ~budget ~deadline ~cancel ~cones ~rung:"exact" b members ok0;
  let okf, probs =
    if retries budget && not (Array.for_all Fun.id ok0) then
      retry_failed ~budget ~deadline ~cancel ~input_probs ~cones ~members b ok0
    else (ok0, Build.node_probabilities b ~input_probs)
  in
  let m = Build.manager b in
  Robdd.publish_metrics m;
  { sb_ok0 = ok0; sb_okf = okf; sb_nodes = Robdd.total_nodes m; sb_probs = probs }

(* The budgeted ladder. Shards return plain arrays and all merging
   happens on the calling domain in ascending shard order, so the result
   is independent of the pool's schedule, of its width, and of whether
   there is a pool at all. *)
let estimate_bounded ?par ~budget ~cancel ~input_probs mapped =
  let net = Mapped.net mapped in
  let n_out = Netlist.num_outputs net in
  let order, deadline, cones, groups =
    Trace.with_span "engine.plan" @@ fun () ->
    let order = Estimate.block_order ~input_probs mapped in
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) budget.deadline_s in
    let cones = Dpa_logic.Cone.of_outputs net in
    let n_shards = max 1 (min n_out max_shards) in
    let shard_of = plan_shards ~n_shards cones in
    let groups =
      List.init n_shards (fun s ->
          List.filter (fun k -> shard_of.(k) = s) (List.init n_out Fun.id))
      |> List.filter_map (function [] -> None | g -> Some (Array.of_list g))
      |> Array.of_list
    in
    (order, deadline, cones, groups)
  in
  (* rungs 1 and 2, one shard at a time: a pool fans the shards out, but
     [Par.map] rejects nesting, so without one (e.g. inside an exhaustive
     search's prefetch task) they run in order on the calling domain *)
  let build s =
    build_shard ~budget ~deadline ~cancel ~order ~input_probs ~cones ~members:groups.(s)
      mapped
  in
  let builds =
    match par with
    | None -> Array.init (Array.length groups) build
    | Some pool ->
      let before = Par.stats pool in
      let b = Par.map pool (Array.length groups) build in
      publish_par_stats pool before;
      b
  in
  let ok0 = Array.make n_out false and okf = Array.make n_out false in
  Array.iteri
    (fun s members ->
      Array.iteri
        (fun t k ->
          ok0.(k) <- builds.(s).sb_ok0.(t);
          okf.(k) <- builds.(s).sb_okf.(t))
        members)
    groups;
  Trace.instant "engine.ladder.exact"
    ~args:[ ("built", Trace.Int (count_ok ok0)); ("cones", Trace.Int n_out) ];
  if count_ok ok0 < n_out && retries budget then
    Trace.instant "engine.ladder.reorder"
      ~args:
        [
          ("adopted", Trace.Bool (count_ok okf > count_ok ok0));
          ("built", Trace.Int (count_ok okf));
        ];
  let methods =
    Array.init n_out (fun k ->
        if not okf.(k) then Simulated else if ok0.(k) then Exact else Reordered)
  in
  if Trace.is_enabled () then
    Array.iteri
      (fun k meth ->
        Trace.instant "engine.cone.method"
          ~args:
            [ ("cone", Trace.Int k); ("method", Trace.Str (cone_method_to_string meth)) ])
      methods;
  Metrics.add c_exact (count_method methods Exact);
  Metrics.add c_reordered (count_method methods Reordered);
  Metrics.add c_simulated (count_method methods Simulated);
  let bdd_nodes = Array.fold_left (fun acc b -> max acc b.sb_nodes) 0 builds in
  let n_failed = n_out - count_ok okf in
  if n_failed > 0 && budget.fallback <> Simulate then
    Dpa_error.error
      (Dpa_error.Budget
         {
           Dpa_error.resource = Dpa_error.Bdd_nodes;
           limit =
             (match budget.max_bdd_nodes with
             | Some n -> float_of_int n
             | None -> infinity);
           spent = float_of_int bdd_nodes;
           context =
             Printf.sprintf "%d of %d output cones unbuildable (fallback %s)" n_failed
               n_out
               (fallback_to_string budget.fallback);
         });
  (* deterministic merge, ascending shard index: every exact value a
     shard produced (including the interned prefixes of failed builds),
     then Monte-Carlo values for whatever stayed unbuilt everywhere *)
  let node_probs = Array.make (Netlist.size net) Float.nan in
  Array.iter
    (fun b ->
      Array.iteri (fun i p -> if not (Float.is_nan p) then node_probs.(i) <- p) b.sb_probs)
    builds;
  let sim_cycles, ci =
    if n_failed = 0 then (0, 0.0)
    else begin
      (* rung 3: one whole-block Monte-Carlo run from [sim_seed] on the
         calling domain — the same stream at any pool width *)
      Dpa_util.Cancel.check cancel;
      let cycles = sim_cycles_of budget in
      Trace.instant "engine.ladder.sim"
        ~args:[ ("cycles", Trace.Int cycles); ("cones", Trace.Int n_failed) ];
      Metrics.add c_sim_cycles cycles;
      let act =
        Dpa_sim.Simulator.measure ~cycles ~cancel (Dpa_util.Rng.create sim_seed)
          ~input_probs mapped
      in
      Array.iteri
        (fun i p ->
          if Float.is_nan p then node_probs.(i) <- act.Dpa_sim.Simulator.node_probs.(i))
        node_probs;
      (cycles, ci_halfwidth_of cycles)
    end
  in
  let report =
    Estimate.price mapped ~node_probs ~input_toggle:(fun opos ->
        Model.static_switching input_probs.(opos))
  in
  {
    report = { report with Estimate.bdd_nodes };
    degradation = { methods; bdd_nodes; sim_cycles; ci_halfwidth = ci };
  }

let estimate ?par ?(budget = default_budget) ?(cancel = Dpa_util.Cancel.none) ~input_probs
    mapped =
  let n_out = Netlist.num_outputs (Mapped.net mapped) in
  let args =
    [
      ("outputs", Trace.Int n_out);
      ("bounded", Trace.Bool (not (is_unbounded budget)));
      ("fallback", Trace.Str (fallback_to_string budget.fallback));
    ]
  in
  let args =
    match par with
    | None -> args
    | Some pool -> args @ [ ("jobs", Trace.Int (Par.jobs pool)) ]
  in
  Trace.with_span "engine.estimate" ~args
  @@ fun () ->
  Metrics.incr c_estimates;
  Dpa_util.Cancel.check cancel;
  if is_unbounded budget then begin
    (* nothing to contain: one manager over the whole block, pool or not *)
    if Dpa_util.Fault.fire Dpa_util.Fault.Slow_cone then
      Dpa_util.Fault.sleep ~cancel Dpa_util.Fault.Slow_cone;
    let report = Estimate.of_mapped ~cancel ~input_probs mapped in
    Metrics.add c_exact n_out;
    {
      report;
      degradation = exact_degradation ~n_outputs:n_out ~bdd_nodes:report.Estimate.bdd_nodes;
    }
  end
  else estimate_bounded ?par ~budget ~cancel ~input_probs mapped
