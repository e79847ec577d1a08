let baseline_version = 1

type spec = { profile : Profiles.t; budget : Dpa_power.Engine.budget option }

type manifest = { name : string; specs : spec list }

type outcome = {
  name : string;
  family : string;
  digest : string;
  gates : int;
  n_pi : int;
  n_po : int;
  n_ffs : int;
  fvs : int;
  supervertices : int;
  ma_size : int;
  ma_power : float;
  mp_size : int;
  mp_power : float;
  mp_phases : int;
  phase_flips : int;
  duplicated_gates : int;
  power_saving_pct : float;
  area_penalty_pct : float;
  ladder : string;
  bdd_nodes : int;
  runtime_s : float;
}

(* ---- manifests ------------------------------------------------------- *)

(* No [deadline_s] in manifest budgets, ever: wall-clock deadlines make
   the ladder rung machine-dependent, and baselines demand (profile,
   seed, budget)-determinism. Node caps and sim parameters are exact. *)
let budgeted ?max_bdd_nodes ?sim_halfwidth ?reorder_passes () =
  let b =
    {
      Dpa_power.Engine.default_budget with
      Dpa_power.Engine.max_bdd_nodes;
      fallback = Dpa_power.Engine.Simulate;
    }
  in
  let b =
    match sim_halfwidth with
    | None -> b
    | Some hw -> { b with Dpa_power.Engine.sim_halfwidth = hw }
  in
  match reorder_passes with
  | None -> b
  | Some p -> { b with Dpa_power.Engine.reorder_passes = p }

let spec_of ?budget name =
  match Profiles.find name with
  | Some profile -> { profile; budget }
  | None -> invalid_arg (Printf.sprintf "Corpus: unknown profile %S" name)

(* The full sweep: ≥10 circuits spanning every family, largest ≥5×10⁴
   gates. Budgets are per-circuit: the multipliers are *meant* to blow
   their node caps and ride the ladder down to Monte-Carlo (that is the
   stress), the wide parity block gets an insurance cap, everything else
   runs exact. *)
let full =
  {
    name = "full";
    specs =
      [
        spec_of "parity_deep" ~budget:(budgeted ~max_bdd_nodes:120_000 ~sim_halfwidth:0.02 ());
        spec_of "parity_mix";
        spec_of "parity_wide" ~budget:(budgeted ~max_bdd_nodes:400_000 ());
        (* The retry rung stays off for the wide adders only, where it
           rescues almost nothing: on add8x32 (`run` under this cap) one
           more exact cone, 4ex+1re+34sim against 4ex+0re+35sim, for
           1.1–1.8 s instead of 0.6–0.7 s. Every other budgeted spec
           keeps the default retry rung. *)
        spec_of "add8x32" ~budget:(budgeted ~max_bdd_nodes:200_000 ~reorder_passes:0 ());
        spec_of "add16x48" ~budget:(budgeted ~max_bdd_nodes:400_000 ~reorder_passes:0 ());
        spec_of "mult16" ~budget:(budgeted ~max_bdd_nodes:120_000 ~sim_halfwidth:0.02 ());
        spec_of "mult24" ~budget:(budgeted ~max_bdd_nodes:120_000 ~sim_halfwidth:0.02 ());
        spec_of "mult32" ~budget:(budgeted ~max_bdd_nodes:120_000 ~sim_halfwidth:0.02 ());
        spec_of "ctrl_dense";
        spec_of "ctrl_grid";
        spec_of "apex7";
        spec_of "industry3";
      ];
  }

(* CI-size: one circuit per family, seconds not minutes. *)
let smoke =
  {
    name = "smoke";
    specs =
      [
        spec_of "parity_smoke";
        spec_of "add4x8";
        spec_of "mult8" ~budget:(budgeted ~max_bdd_nodes:60_000 ~sim_halfwidth:0.02 ());
        spec_of "ctrl_smoke";
        spec_of "apex7";
      ];
  }

let manifest_of_string = function
  | "full" -> Some full
  | "smoke" -> Some smoke
  | _ -> None

let find_spec m name =
  let lower = String.lowercase_ascii name in
  List.find_opt
    (fun s -> String.lowercase_ascii s.profile.Profiles.name = lower)
    m.specs

(* ---- budget merging --------------------------------------------------- *)

let merge_budget spec ~max_bdd_nodes ~deadline_s ~fallback =
  match (max_bdd_nodes, deadline_s, fallback) with
  | None, None, None -> spec.budget
  | _ ->
    let b = Option.value spec.budget ~default:Dpa_power.Engine.default_budget in
    Some
      {
        b with
        Dpa_power.Engine.max_bdd_nodes =
          (match max_bdd_nodes with Some _ -> max_bdd_nodes | None -> b.Dpa_power.Engine.max_bdd_nodes);
        deadline_s =
          (match deadline_s with Some _ -> deadline_s | None -> b.Dpa_power.Engine.deadline_s);
        fallback = Option.value fallback ~default:b.Dpa_power.Engine.fallback;
      }

(* ---- running one spec -------------------------------------------------- *)

let run_spec ?par ?budget spec =
  let profile = spec.profile in
  let budget = match budget with Some _ -> budget | None -> spec.budget in
  let config =
    {
      Dpa_core.Flow.default_config with
      Dpa_core.Flow.pair_limit = profile.Profiles.pair_limit;
      budget;
      par;
    }
  in
  let t0 = Unix.gettimeofday () in
  let flow, digest, gates, n_ffs, fvs, supervertices, priced_net =
    match Profiles.build profile with
    | Profiles.Comb net ->
      let r = Dpa_core.Flow.compare_ma_mp ~config net in
      ( r,
        Dpa_logic.Struct_hash.digest net,
        Dpa_logic.Netlist.gate_count net,
        0,
        0,
        0,
        net )
    | Profiles.Seq sn ->
      let r = Dpa_core.Seq_flow.compare_ma_mp ~config sn in
      (* the baseline digest covers exactly the network the flow priced,
         or two controllers differing only in D taps would collide *)
      let core = Dpa_core.Seq_flow.core sn in
      ( r.Dpa_core.Seq_flow.comb,
        Dpa_logic.Struct_hash.digest core,
        Dpa_logic.Netlist.gate_count core,
        Dpa_seq.Seq_netlist.n_ffs sn,
        List.length r.Dpa_core.Seq_flow.fvs,
        r.Dpa_core.Seq_flow.supervertices,
        core )
  in
  let runtime_s = Unix.gettimeofday () -. t0 in
  let mp = flow.Dpa_core.Flow.mp and ma = flow.Dpa_core.Flow.ma in
  let mp_assignment = mp.Dpa_core.Flow.assignment in
  (* phase-conflict accounting on the same optimized network the flow
     priced (Opt.optimize is deterministic, so this reconstruction is
     exact) *)
  let stats =
    Dpa_synth.Inverterless.stats
      (Dpa_synth.Inverterless.realize (Dpa_synth.Opt.optimize priced_net) mp_assignment)
  in
  {
    name = profile.Profiles.name;
    family = Profiles.family_name profile.Profiles.family;
    digest;
    gates;
    n_pi = flow.Dpa_core.Flow.n_pi;
    n_po = flow.Dpa_core.Flow.n_po;
    n_ffs;
    fvs;
    supervertices;
    ma_size = ma.Dpa_core.Flow.size;
    ma_power = ma.Dpa_core.Flow.power;
    mp_size = mp.Dpa_core.Flow.size;
    mp_power = mp.Dpa_core.Flow.power;
    mp_phases = Array.length mp_assignment;
    phase_flips = Dpa_synth.Phase.count_negative mp_assignment;
    duplicated_gates = stats.Dpa_synth.Inverterless.duplicated_nodes;
    power_saving_pct = flow.Dpa_core.Flow.power_saving_pct;
    area_penalty_pct = flow.Dpa_core.Flow.area_penalty_pct;
    ladder = Dpa_power.Engine.degradation_label mp.Dpa_core.Flow.degradation;
    bdd_nodes = mp.Dpa_core.Flow.degradation.Dpa_power.Engine.bdd_nodes;
    runtime_s;
  }

(* ---- baseline (de)serialization ---------------------------------------- *)

let json_of_outcome o =
  let open Dpa_util.Jsonlite in
  Obj
    [
      ("version", Num (float_of_int baseline_version));
      ("name", Str o.name);
      ("family", Str o.family);
      ("digest", Str o.digest);
      ("gates", Num (float_of_int o.gates));
      ("n_pi", Num (float_of_int o.n_pi));
      ("n_po", Num (float_of_int o.n_po));
      ("n_ffs", Num (float_of_int o.n_ffs));
      ("fvs", Num (float_of_int o.fvs));
      ("supervertices", Num (float_of_int o.supervertices));
      ("ma_size", Num (float_of_int o.ma_size));
      ("ma_power", Num o.ma_power);
      ("mp_size", Num (float_of_int o.mp_size));
      ("mp_power", Num o.mp_power);
      ("mp_phases", Num (float_of_int o.mp_phases));
      ("phase_flips", Num (float_of_int o.phase_flips));
      ("duplicated_gates", Num (float_of_int o.duplicated_gates));
      ("power_saving_pct", Num o.power_saving_pct);
      ("area_penalty_pct", Num o.area_penalty_pct);
      ("ladder", Str o.ladder);
      ("bdd_nodes", Num (float_of_int o.bdd_nodes));
      ("runtime_s", Num o.runtime_s);
    ]

let outcome_of_json j =
  let open Dpa_util.Jsonlite in
  let v = to_int (member "version" j) in
  if v <> baseline_version then
    raise
      (Parse_error
         (Printf.sprintf "baseline version %d (this build reads %d)" v
            baseline_version));
  {
    name = to_string (member "name" j);
    family = to_string (member "family" j);
    digest = to_string (member "digest" j);
    gates = to_int (member "gates" j);
    n_pi = to_int (member "n_pi" j);
    n_po = to_int (member "n_po" j);
    n_ffs = to_int (member "n_ffs" j);
    fvs = to_int (member "fvs" j);
    supervertices = to_int (member "supervertices" j);
    ma_size = to_int (member "ma_size" j);
    ma_power = to_float (member "ma_power" j);
    mp_size = to_int (member "mp_size" j);
    mp_power = to_float (member "mp_power" j);
    mp_phases = to_int (member "mp_phases" j);
    phase_flips = to_int (member "phase_flips" j);
    duplicated_gates = to_int (member "duplicated_gates" j);
    power_saving_pct = to_float (member "power_saving_pct" j);
    area_penalty_pct = to_float (member "area_penalty_pct" j);
    ladder = to_string (member "ladder" j);
    bdd_nodes = to_int (member "bdd_nodes" j);
    runtime_s = to_float (member "runtime_s" j);
  }

let baseline_path ~dir name = Filename.concat dir (name ^ ".json")

let write_baseline ~dir o =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = baseline_path ~dir o.name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Dpa_util.Jsonlite.encode (json_of_outcome o));
      output_char oc '\n')

let read_baseline ~dir name =
  let path = baseline_path ~dir name in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Some (outcome_of_json (Dpa_util.Jsonlite.parse s))
  end

(* ---- regression diff --------------------------------------------------- *)

(* Every quality field is compared for *exact* equality — the whole stack
   is deterministic in (profile, seed, budget), so any drift is a real
   behavioural change, not noise. Floats were written by Jsonlite's
   shortest-round-trip encoder, so they read back bit-identical.
   [runtime_s] is informational; only a [perf_slack] factor blowout
   (default 10×, 0 disables) flags it, so machine variance never fails
   the gate while an accidental O(n²) still does. *)
let diff ?(perf_slack = 10.0) ~expected ~actual () =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_int field e a = if e <> a then add "%s: expected %d, got %d" field e a in
  let check_float field e a =
    if e <> a then add "%s: expected %.17g, got %.17g" field e a
  in
  let check_str field e a = if e <> a then add "%s: expected %S, got %S" field e a in
  check_str "digest" expected.digest actual.digest;
  check_int "gates" expected.gates actual.gates;
  check_int "n_pi" expected.n_pi actual.n_pi;
  check_int "n_po" expected.n_po actual.n_po;
  check_int "n_ffs" expected.n_ffs actual.n_ffs;
  check_int "fvs" expected.fvs actual.fvs;
  check_int "supervertices" expected.supervertices actual.supervertices;
  check_int "ma_size" expected.ma_size actual.ma_size;
  check_float "ma_power" expected.ma_power actual.ma_power;
  check_int "mp_size" expected.mp_size actual.mp_size;
  check_float "mp_power" expected.mp_power actual.mp_power;
  check_int "mp_phases" expected.mp_phases actual.mp_phases;
  check_int "phase_flips" expected.phase_flips actual.phase_flips;
  check_int "duplicated_gates" expected.duplicated_gates actual.duplicated_gates;
  check_float "power_saving_pct" expected.power_saving_pct actual.power_saving_pct;
  check_float "area_penalty_pct" expected.area_penalty_pct actual.area_penalty_pct;
  check_str "ladder" expected.ladder actual.ladder;
  check_int "bdd_nodes" expected.bdd_nodes actual.bdd_nodes;
  if
    perf_slack > 0.0
    && expected.runtime_s > 0.01
    && actual.runtime_s > expected.runtime_s *. perf_slack
  then
    add "runtime_s: %.3fs is over %.1fx the baseline %.3fs" actual.runtime_s
      perf_slack expected.runtime_s;
  List.rev !problems

(* ---- bench report ------------------------------------------------------ *)

let bench_json ~manifest ~jobs outcomes =
  let open Dpa_util.Jsonlite in
  encode
    (Obj
       [
         ("schema", Str "dominoflow/corpus/v1");
         ("manifest", Str manifest);
         ("jobs", Num (float_of_int jobs));
         ("circuits", Arr (List.map json_of_outcome outcomes));
       ])
