(** Structured library errors and typed resource-budget exhaustion.

    The estimation pipeline must always terminate with an answer or a
    diagnosable error: library code raises {!Error} (or returns the payload
    as [(_, t) result]) instead of [failwith], and the BDD kernel raises
    the dedicated {!Budget_exceeded} when an installed node budget or
    wall-clock deadline runs out — a {e retryable} condition the
    degradation ladder in [Dpa_power.Engine] catches to fall back to
    reordering or simulation. The CLI maps both to one-line messages and
    documented sysexits-style codes via {!to_string} and {!exit_code}. *)

type resource = Bdd_nodes | Wall_clock

type budget_report = {
  resource : resource;
  limit : float;  (** node count, or seconds *)
  spent : float;  (** same unit, at the moment of exhaustion *)
  context : string;  (** e.g. which cone was being built; may be empty *)
}

type cancel_reason =
  | Deadline of { limit_s : float; elapsed_s : float }
      (** the request's wall-clock deadline passed *)
  | Aborted of string  (** explicit cancellation (watchdog, shutdown, …) *)

type t =
  | Parse of { source : string; line : int option; message : string }
      (** malformed input text; [source] is a file name or format name *)
  | Invalid_input of string  (** structurally valid input the flow rejects *)
  | Unsupported of string  (** recognized but unimplemented construct *)
  | Budget of budget_report  (** budget ran out and no fallback was allowed *)
  | Cancelled of cancel_reason
      (** the request was cancelled cooperatively ({!Dpa_util.Cancel});
          unlike {!Budget}, fallback ladders must {e not} catch this *)
  | Overloaded of { retry_after_ms : int }
      (** admission control shed the request; retry after the hint *)
  | Io of string  (** file-system failure *)
  | Internal of string  (** invariant violation — a bug, not a user error *)

exception Error of t

exception Budget_exceeded of budget_report
(** Raised by [Dpa_bdd.Robdd] when a manager's installed budget is
    exhausted. Kept distinct from {!Error} so fallback ladders can catch
    exactly this and nothing else. *)

val error : t -> 'a

val budget_exceeded :
  ?context:string -> resource:resource -> limit:float -> spent:float -> unit -> 'a
(** Raises {!Budget_exceeded}. *)

val resource_to_string : resource -> string

val budget_to_string : budget_report -> string

val to_string : t -> string
(** One-line human-readable message (no trailing newline). *)

val exit_code : t -> int
(** Documented process exit code for the CLI: 65 parse/invalid input,
    66 I/O, 69 unsupported, 70 internal, 75 budget exceeded /
    cancelled / overloaded (all retryable). *)

val of_exn : exn -> t option
(** Structured view of an exception: {!Error} and {!Budget_exceeded}
    verbatim; [Sys_error], [Invalid_argument] and [Failure] are folded into
    {!Io}, {!Invalid_input} and {!Internal}; [Fun.Finally_raised e] is
    viewed as [e]; anything else is [None]. *)

val protect : (unit -> 'a) -> ('a, t) result
(** Runs [f], converting any exception {!of_exn} recognizes into
    [Error _]; unrecognized exceptions propagate. *)
