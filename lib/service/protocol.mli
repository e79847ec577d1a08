(** The service wire protocol: newline-delimited JSON requests and
    responses over a Unix-domain socket.

    One request is one line, one JSON object; the server answers each
    with exactly one line. Responses to concurrently executing requests
    may arrive out of request order — the echoed [id] is the correlation
    key, and the batch client reorders on it.

    Request schema (fields beyond [cmd] are optional unless noted):
    {v
    {"id": 7, "cmd": "estimate",
     "file": "data/frg1_synthetic.blif",     -- or "netlist": "<text>"
     "format": "blif" | "dln",               -- inline text only
     "input_prob": 0.5, "phases": "+-+",
     "max_bdd_nodes": 20000, "deadline_s": 1.5,
     "fallback": "none" | "reorder" | "sim",
     "seed": 1,                              -- optimize / compare
     "cache": "use" | "bypass"}              -- result-cache control
    v}
    [cmd] is one of [ping], [info], [estimate], [optimize], [compare],
    [stats], [shutdown]. Fields outside the schema are ignored, so a
    field an older client still sends never fails a request. Responses
    are [{"id": n, "ok": true, "cmd": c, "result": {...}}] or
    [{"id": n, "ok": false, "error": {"kind": k, "message": m,
    "exit_code": c}}] with [kind]/[exit_code] following the
    {!Dpa_util.Dpa_error} taxonomy — a malformed or unexecutable request
    produces a structured error response, never a dead worker. An
    [overloaded] error additionally carries [retry_after_ms].

    [cache] (default ["use"]) controls the server's result cache
    ([Rescache]): ["bypass"] forces the cold execution path — the cache
    is neither probed nor populated — which is how [validate] runs and
    tests pin cached-vs-cold byte identity. The response carries no
    cache marker {e by design}: a hit must be byte-identical to the cold
    response, so hit/miss accounting is observable only through [stats]
    and the metrics registry. *)

module Jsonlite = Dpa_util.Jsonlite

(** Where the circuit text comes from: a server-side path (loaded with
    the shared {!Dpa_logic.Io} loader) or inline netlist text shipped in
    the request. *)
type source =
  | File of string
  | Inline of { text : string; format : [ `Blif | `Dln ] }

(** A request's resource budget; [None] in a request when it names
    neither [max_bdd_nodes] nor [deadline_s]. *)
type budget_opts = {
  max_bdd_nodes : int option;
  deadline_s : float option;
  fallback : Dpa_power.Engine.fallback;
}

type request =
  | Ping
  | Info of { source : source }
  | Estimate of {
      source : source;
      input_prob : float;
      phases : string option;  (** [None] = all positive *)
      budget : budget_opts option;
    }
  | Optimize of {
      source : source;
      input_prob : float;
      seed : int;
      budget : budget_opts option;
    }
  | Compare of {
      source : source;
      input_prob : float;
      seed : int;
      budget : budget_opts option;
    }
  | Stats
      (** service-health snapshot (worker strength, watchdog counters,
          queue depth) — answered by the pool itself, not a handler *)
  | Shutdown

(** Per-request result-cache control; wire field [cache], omitted when
    [`Use] so default request lines are unchanged from earlier protocol
    revisions. *)
type cache_mode =
  [ `Use  (** probe the result cache, populate it on a miss (default) *)
  | `Bypass  (** force the cold path: never probe, never populate *) ]

type envelope = { id : int; request : request; cache : cache_mode }
(** [id] defaults to 0 when the request omits it. *)

val cmd_name : request -> string

val request_deadline_s : request -> float option
(** The request's wall-clock deadline ([deadline_s] of its budget), if
    any — what the service derives the per-request cancellation token
    from. *)

val request_to_json : envelope -> Jsonlite.t
(** Client-side encoding; {!parse_request} of the encoded line yields an
    equal envelope (the round trip the protocol tests pin down). *)

val request_line : envelope -> string
(** [Jsonlite.encode (request_to_json e)] — one wire line, no newline. *)

val parse_request : string -> (envelope, Dpa_util.Dpa_error.t) result
(** Malformed JSON, an unknown [cmd], or ill-typed fields map to
    [Dpa_error.Parse] / [Invalid_input] payloads. *)

(** {2 Responses} *)

val ok_response : id:int -> cmd:string -> Jsonlite.t -> string
(** One response line (no newline). *)

val ok_response_text : id:int -> cmd:string -> string -> string
(** [ok_response_text ~id ~cmd result] is byte-identical to
    [ok_response ~id ~cmd r] whenever [result = Jsonlite.encode r] —
    the splice the result cache uses to wrap a stored (already encoded)
    [result] payload in a fresh envelope without a decode/re-encode
    round trip. The equality is pinned by a test. *)

val error_response : id:int -> Dpa_util.Dpa_error.t -> string

val error_kind : Dpa_util.Dpa_error.t -> string
(** Stable [kind] strings: [parse], [invalid-input], [unsupported],
    [budget], [deadline_exceeded], [cancelled], [overloaded], [io],
    [internal]. An [overloaded] error object additionally carries a
    numeric [retry_after_ms] field. *)

(** Client-side view of one parsed response line. *)
type response = {
  rid : int;
  ok : bool;
  cmd : string option;  (** present on success *)
  result : Jsonlite.t;  (** the [result] object, or the [error] object *)
}

val parse_response : string -> (response, string) result
