(** Bounded domain pool with deterministic ordered fan-out.

    One pool owns [jobs - 1] resident worker domains; the submitting
    domain is the remaining participant, so [jobs = 1] runs everything
    inline and spawns nothing. In a parallel region ({!map}) every
    participant claims the next task index from one shared atomic
    counter until none is left, so irregular task costs (one hostile BDD
    cone among cheap siblings) still load-balance.

    Determinism contract: {!map} always returns results in task-index
    order, whatever interleaving executed them — callers that keep
    per-task work self-contained (a private [Dpa_bdd.Robdd] manager per
    task) get bit-identical results at any [jobs] value. The pool is a scheduling
    device only; it never reorders observable effects of the merge.

    The pool layers below [Dpa_obs]: it keeps plain counters
    ({!stats}) and leaves publishing them as metrics to callers. *)

type t
(** A pool of domains. Create once, reuse across many regions; domains
    are parked on a condition variable between regions. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val create : jobs:int -> t
(** Spawns [jobs - 1] worker domains. [jobs] must be in [1 .. 126]
    (the OCaml runtime caps live domains at 128) or [Invalid_argument]
    is raised. *)

val jobs : t -> int
(** Participant count (workers + submitter), as given to {!create}. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent. The pool must be idle. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] even on exceptions. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] evaluates [f 0 .. f (n-1)] across the pool's domains
    and returns [[| f 0; …; f (n-1) |]] — results in index order
    regardless of execution order.

    If one or more tasks raise, the exception of the {e lowest-indexed}
    failing task is re-raised in the submitting domain with its
    backtrace, whatever the schedule: tasks are claimed in increasing
    index order, so once a task fails every lower index still runs, and
    a higher index claimed afterwards is skipped.

    Nested use is rejected: calling [map] (on any pool) from inside a
    task raises [Invalid_argument] — tasks must be leaves. One region
    runs at a time per pool; concurrent submitters serialize.

    [f] runs on an arbitrary participant domain. Anything it touches
    must be domain-safe or task-private. *)

type stats = {
  tasks : int;  (** tasks submitted to regions over the pool's lifetime *)
  steals : int;
      (** tasks run by worker domains rather than the submitter: 0 at
          [jobs = 1], where everything runs inline *)
}

val stats : t -> stats
(** Cumulative counters, for publishing as [par.tasks] / [par.steals]
    metrics by layers that may depend on [Dpa_obs]. *)
