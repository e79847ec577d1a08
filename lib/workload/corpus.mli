(** Production-scale workload corpus: seeded manifests, per-circuit
    expected baselines, and the regression diff that gates them.

    A {e manifest} is a named list of profile specs (with optional
    per-circuit engine budgets). Running a spec sweeps the circuit
    through the MA-vs-MP flow (combinational via {!Dpa_core.Flow},
    sequential via {!Dpa_core.Seq_flow}) and distills the result into an
    {!outcome} — the quality and perf signature that is stored under
    [data/baselines/<name>.json] and diffed on every subsequent sweep.

    Everything except [runtime_s] is deterministic in
    [(profile, seed, budget)] at any [--jobs] width, so the diff demands
    {e exact} equality: a one-ULP power drift is a real behavioural
    change, not noise. See DESIGN.md §15. *)

type spec = { profile : Profiles.t; budget : Dpa_power.Engine.budget option }

type manifest = { name : string; specs : spec list }

type outcome = {
  name : string;
  family : string;
  digest : string;  (** {!Dpa_logic.Struct_hash} of the generated network
                        (for sequential profiles: the core with every D
                        pin promoted to a block output, exactly the
                        network the flow prices) *)
  gates : int;
  n_pi : int;  (** flow-level count (includes Q pseudo-inputs) *)
  n_po : int;  (** flow-level count (includes D-pin outputs) *)
  n_ffs : int;
  fvs : int;  (** flip-flops cut by MFVS (0 for combinational) *)
  supervertices : int;
  ma_size : int;
  ma_power : float;
  mp_size : int;
  mp_power : float;
  mp_phases : int;
  phase_flips : int;  (** negative phases in the MP assignment *)
  duplicated_gates : int;  (** logic duplicated resolving phase conflicts *)
  power_saving_pct : float;
  area_penalty_pct : float;
  ladder : string;  (** {!Dpa_power.Engine.degradation_label} of MP *)
  bdd_nodes : int;
  runtime_s : float;  (** wall time; informational, see {!diff} *)
}

val baseline_version : int

val full : manifest
(** ≥10 circuits spanning every family; largest ≥ 5×10⁴ gates. The
    multipliers carry node budgets and are {e expected} to degrade down
    the engine ladder — that is their job. *)

val smoke : manifest
(** CI-size: one circuit per family, seconds not minutes. *)

val manifest_of_string : string -> manifest option
(** ["full"] or ["smoke"]. *)

val find_spec : manifest -> string -> spec option
(** Case-insensitive lookup by circuit name. *)

val merge_budget :
  spec ->
  max_bdd_nodes:int option ->
  deadline_s:float option ->
  fallback:Dpa_power.Engine.fallback option ->
  Dpa_power.Engine.budget option
(** CLI overrides folded over the spec's own budget; all-[None] keeps the
    spec budget untouched (including [None] = unbudgeted). *)

val run_spec :
  ?par:Dpa_util.Par.t -> ?budget:Dpa_power.Engine.budget -> spec -> outcome
(** Builds the circuit and runs the full MA-vs-MP comparison.
    [?budget] replaces the spec's own (use {!merge_budget} to combine);
    [?par] fans budgeted shard builds, in the final pricing and in every
    search candidate, across a domain pool — outcomes are bit-identical
    at any pool width and without one. *)

val json_of_outcome : outcome -> Dpa_util.Jsonlite.t

val outcome_of_json : Dpa_util.Jsonlite.t -> outcome
(** Raises [Dpa_util.Jsonlite.Parse_error] on shape or version mismatch. *)

val baseline_path : dir:string -> string -> string

val write_baseline : dir:string -> outcome -> unit
(** Writes [dir/<name>.json] (creating [dir] if missing). *)

val read_baseline : dir:string -> string -> outcome option
(** [None] when no baseline file exists; raises
    [Dpa_util.Jsonlite.Parse_error] on a corrupt one. *)

val diff : ?perf_slack:float -> expected:outcome -> actual:outcome -> unit -> string list
(** Human-readable regression descriptions; [[]] = clean. Quality fields
    compare exactly; [runtime_s] only flags when it exceeds
    [perf_slack]× the baseline (default 10.0; [0.] disables the perf
    check entirely). *)

val bench_json : manifest:string -> jobs:int -> outcome list -> string
(** The [BENCH_corpus.json] document (schema [dominoflow/corpus/v1]). *)
