module Jsonlite = Dpa_util.Jsonlite
module Dpa_error = Dpa_util.Dpa_error
module Engine = Dpa_power.Engine

type source =
  | File of string
  | Inline of { text : string; format : [ `Blif | `Dln ] }

type budget_opts = {
  max_bdd_nodes : int option;
  deadline_s : float option;
  fallback : Engine.fallback;
}

type request =
  | Ping
  | Info of { source : source }
  | Estimate of {
      source : source;
      input_prob : float;
      phases : string option;
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
  | Shutdown

type cache_mode =
  [ `Use  (* default: probe the result cache, populate it on a miss *)
  | `Bypass  (* force the cold path: never probe, never populate *) ]

type envelope = { id : int; request : request; cache : cache_mode }

let cmd_name = function
  | Ping -> "ping"
  | Info _ -> "info"
  | Estimate _ -> "estimate"
  | Optimize _ -> "optimize"
  | Compare _ -> "compare"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* The wall-clock deadline a request carries, if any — the service derives
   its per-request cancellation token from this. *)
let request_deadline_s = function
  | Estimate { budget = Some b; _ }
  | Optimize { budget = Some b; _ }
  | Compare { budget = Some b; _ } -> b.deadline_s
  | Estimate _ | Optimize _ | Compare _ | Ping | Info _ | Stats | Shutdown -> None

(* ------------------------------------------------------------------ *)
(* Encoding (client side)                                               *)
(* ------------------------------------------------------------------ *)

let source_fields = function
  | File path -> [ ("file", Jsonlite.Str path) ]
  | Inline { text; format } ->
    [
      ("netlist", Jsonlite.Str text);
      ("format", Jsonlite.Str (match format with `Blif -> "blif" | `Dln -> "dln"));
    ]

let budget_fields = function
  | None -> []
  | Some b ->
    (match b.max_bdd_nodes with
    | Some n -> [ ("max_bdd_nodes", Jsonlite.Num (float_of_int n)) ]
    | None -> [])
    @ (match b.deadline_s with
      | Some s -> [ ("deadline_s", Jsonlite.Num s) ]
      | None -> [])
    @ [ ("fallback", Jsonlite.Str (Engine.fallback_to_string b.fallback)) ]

let request_to_json { id; request; cache } =
  let base = [ ("id", Jsonlite.Num (float_of_int id)); ("cmd", Jsonlite.Str (cmd_name request)) ] in
  (* emitted only when bypassing, so default request lines are unchanged
     from earlier protocol revisions *)
  let cache_fields =
    match cache with `Use -> [] | `Bypass -> [ ("cache", Jsonlite.Str "bypass") ]
  in
  let rest =
    match request with
    | Ping | Stats | Shutdown -> []
    | Info { source } -> source_fields source
    | Estimate { source; input_prob; phases; budget } ->
      source_fields source
      @ [ ("input_prob", Jsonlite.Num input_prob) ]
      @ (match phases with Some p -> [ ("phases", Jsonlite.Str p) ] | None -> [])
      @ budget_fields budget
    | Optimize { source; input_prob; seed; budget }
    | Compare { source; input_prob; seed; budget } ->
      source_fields source
      @ [
          ("input_prob", Jsonlite.Num input_prob);
          ("seed", Jsonlite.Num (float_of_int seed));
        ]
      @ budget_fields budget
  in
  Jsonlite.Obj (base @ rest @ cache_fields)

let request_line e = Jsonlite.encode (request_to_json e)

(* ------------------------------------------------------------------ *)
(* Decoding (server side)                                               *)
(* ------------------------------------------------------------------ *)

let invalid msg = Error (Dpa_error.Invalid_input msg)

let field_int ?default json key =
  match Jsonlite.member_opt key json with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> invalid (Printf.sprintf "missing field %S" key))
  | Some (Jsonlite.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | Some _ -> invalid (Printf.sprintf "field %S must be an integer" key)

let field_float ~default json key =
  match Jsonlite.member_opt key json with
  | None -> Ok default
  | Some (Jsonlite.Num f) -> Ok f
  | Some _ -> invalid (Printf.sprintf "field %S must be a number" key)

let field_str_opt json key =
  match Jsonlite.member_opt key json with
  | None -> Ok None
  | Some (Jsonlite.Str s) -> Ok (Some s)
  | Some _ -> invalid (Printf.sprintf "field %S must be a string" key)

let ( let* ) = Result.bind

let source_of json =
  let* file = field_str_opt json "file" in
  let* text = field_str_opt json "netlist" in
  let* format = field_str_opt json "format" in
  match file, text with
  | Some _, Some _ -> invalid "fields \"file\" and \"netlist\" are mutually exclusive"
  | None, None -> invalid "one of \"file\" or \"netlist\" is required"
  | Some path, None -> (
    match format with
    | None -> Ok (File path)
    | Some _ -> invalid "field \"format\" applies only to inline \"netlist\" text")
  | None, Some text -> (
    match format with
    | None | Some "dln" -> Ok (Inline { text; format = `Dln })
    | Some "blif" -> Ok (Inline { text; format = `Blif })
    | Some other -> invalid (Printf.sprintf "unknown format %S (blif|dln)" other))

let budget_of json =
  let* max_bdd_nodes =
    match Jsonlite.member_opt "max_bdd_nodes" json with
    | None -> Ok None
    | Some (Jsonlite.Num f) when Float.is_integer f && f > 0.0 ->
      Ok (Some (int_of_float f))
    | Some _ -> invalid "field \"max_bdd_nodes\" must be a positive integer"
  in
  let* deadline_s =
    match Jsonlite.member_opt "deadline_s" json with
    | None -> Ok None
    | Some (Jsonlite.Num f) when f > 0.0 -> Ok (Some f)
    | Some _ -> invalid "field \"deadline_s\" must be a positive number"
  in
  let* fallback =
    match Jsonlite.member_opt "fallback" json with
    | None -> Ok Engine.Simulate
    | Some (Jsonlite.Str s) -> (
      match Engine.fallback_of_string s with
      | Some f -> Ok f
      | None -> invalid (Printf.sprintf "unknown fallback %S (none|reorder|sim)" s))
    | Some _ -> invalid "field \"fallback\" must be a string"
  in
  if max_bdd_nodes = None && deadline_s = None then Ok None
  else Ok (Some { max_bdd_nodes; deadline_s; fallback })

let input_prob_of json =
  let* p = field_float ~default:0.5 json "input_prob" in
  if p < 0.0 || p > 1.0 then invalid "field \"input_prob\" must lie in [0,1]" else Ok p

let parse_request line =
  match Jsonlite.parse line with
  | exception Jsonlite.Parse_error msg ->
    Error (Dpa_error.Parse { source = "request"; line = None; message = msg })
  | Jsonlite.Obj _ as json -> (
    let* id = field_int ~default:0 json "id" in
    let* cmd =
      match Jsonlite.member_opt "cmd" json with
      | Some (Jsonlite.Str s) -> Ok s
      | Some _ -> invalid "field \"cmd\" must be a string"
      | None -> invalid "missing field \"cmd\""
    in
    let* request =
      match cmd with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | "info" ->
        let* source = source_of json in
        Ok (Info { source })
      | "estimate" ->
        let* source = source_of json in
        let* input_prob = input_prob_of json in
        let* phases = field_str_opt json "phases" in
        let* budget = budget_of json in
        Ok (Estimate { source; input_prob; phases; budget })
      | "optimize" | "compare" ->
        let* source = source_of json in
        let* input_prob = input_prob_of json in
        let* seed = field_int ~default:1 json "seed" in
        let* budget = budget_of json in
        if cmd = "optimize" then Ok (Optimize { source; input_prob; seed; budget })
        else Ok (Compare { source; input_prob; seed; budget })
      | other ->
        invalid
          (Printf.sprintf
             "unknown cmd %S (ping|info|estimate|optimize|compare|stats|shutdown)" other)
    in
    let* cache =
      match Jsonlite.member_opt "cache" json with
      | None | Some (Jsonlite.Str "use") -> Ok `Use
      | Some (Jsonlite.Str "bypass") -> Ok `Bypass
      | Some _ -> invalid "field \"cache\" must be \"use\" or \"bypass\""
    in
    Ok { id; request; cache })
  | _ -> Error (Dpa_error.Invalid_input "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

let error_kind (e : Dpa_error.t) =
  match e with
  | Dpa_error.Parse _ -> "parse"
  | Dpa_error.Invalid_input _ -> "invalid-input"
  | Dpa_error.Unsupported _ -> "unsupported"
  | Dpa_error.Budget _ -> "budget"
  | Dpa_error.Cancelled (Dpa_error.Deadline _) -> "deadline_exceeded"
  | Dpa_error.Cancelled (Dpa_error.Aborted _) -> "cancelled"
  | Dpa_error.Overloaded _ -> "overloaded"
  | Dpa_error.Io _ -> "io"
  | Dpa_error.Internal _ -> "internal"

let ok_response ~id ~cmd result =
  Jsonlite.encode
    (Jsonlite.Obj
       [
         ("id", Jsonlite.Num (float_of_int id));
         ("ok", Jsonlite.Bool true);
         ("cmd", Jsonlite.Str cmd);
         ("result", result);
       ])

(* The textual twin of [ok_response], for results that are already
   encoded (cache hits and the store-then-reply miss path). [Jsonlite]
   encodes the id and cmd pieces so the bytes agree with [ok_response]
   even for ids outside the integer-printing fast path; the byte
   equality of the two constructors is pinned by a test. *)
let ok_response_text ~id ~cmd result =
  String.concat ""
    [
      "{\"id\":";
      Jsonlite.encode (Jsonlite.Num (float_of_int id));
      ",\"ok\":true,\"cmd\":";
      Jsonlite.encode (Jsonlite.Str cmd);
      ",\"result\":";
      result;
      "}";
    ]

let error_response ~id e =
  let extra =
    match e with
    | Dpa_error.Overloaded { retry_after_ms } ->
      [ ("retry_after_ms", Jsonlite.Num (float_of_int retry_after_ms)) ]
    | _ -> []
  in
  Jsonlite.encode
    (Jsonlite.Obj
       [
         ("id", Jsonlite.Num (float_of_int id));
         ("ok", Jsonlite.Bool false);
         ( "error",
           Jsonlite.Obj
             ([
                ("kind", Jsonlite.Str (error_kind e));
                ("message", Jsonlite.Str (Dpa_error.to_string e));
                ("exit_code", Jsonlite.Num (float_of_int (Dpa_error.exit_code e)));
              ]
             @ extra) );
       ])

type response = {
  rid : int;
  ok : bool;
  cmd : string option;
  result : Jsonlite.t;
}

let parse_response line =
  match Jsonlite.parse line with
  | exception Jsonlite.Parse_error msg -> Error msg
  | json -> (
    try
      let ok = Jsonlite.to_bool (Jsonlite.member "ok" json) in
      Ok
        {
          rid = Jsonlite.to_int (Jsonlite.member "id" json);
          ok;
          cmd = Option.map Jsonlite.to_string (Jsonlite.member_opt "cmd" json);
          result =
            (if ok then Jsonlite.member "result" json else Jsonlite.member "error" json);
        }
    with Jsonlite.Parse_error msg -> Error msg)
