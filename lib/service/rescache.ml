module Jsonlite = Dpa_util.Jsonlite
module Trace = Dpa_obs.Trace
module Metrics = Dpa_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Metrics cells (eager registration: domain-safe)                      *)
(* ------------------------------------------------------------------ *)

let c_hits = Metrics.counter ~help:"result-cache hits" "service.cache.hits"

let c_misses = Metrics.counter ~help:"result-cache misses" "service.cache.misses"

let c_evictions =
  Metrics.counter ~help:"result-cache entries evicted by the LRU bounds"
    "service.cache.evictions"

let c_stores = Metrics.counter ~help:"result-cache entries stored" "service.cache.stores"

let c_snapshot_rejected =
  Metrics.counter ~help:"cache snapshots rejected as corrupt or version-skewed"
    "service.cache.snapshot_rejected"

let g_bytes = Metrics.gauge ~help:"result-cache resident bytes" "service.cache.bytes"

let g_entries = Metrics.gauge ~help:"result-cache resident entries" "service.cache.entries"

(* ------------------------------------------------------------------ *)
(* LRU                                                                  *)
(* ------------------------------------------------------------------ *)

(* Intrusive doubly-linked list threaded through a circular sentinel:
   sent.next is the MRU end, sent.prev the LRU end. Option-free links
   keep the hot path allocation-light. *)
type node = {
  key : string;
  cmd : string;
  result : string;
  size : int;
  mutable prev : node;
  mutable next : node;
}

(* Every mutable field is guarded by [lock]. A probe holds it for one
   lookup and one relink; a service runs one or two workers, each
   probing once per request, so one lock is never contended for long. *)
type t = {
  lock : Mutex.t;
  tbl : (string, node) Hashtbl.t;
  sent : node;
  max_bytes : int;
  max_entries : int;
  mutable bytes : int;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stores : int;
}

(* hashtable slot, list links, size fields: a flat accounting constant so
   the byte bound tracks real residency, not just payload length *)
let entry_overhead = 64

let entry_size ~key ~cmd ~result =
  entry_overhead + String.length key + String.length cmd + String.length result

let create ~max_bytes ~max_entries () =
  if max_bytes < 1 then invalid_arg "Rescache.create: max_bytes must be >= 1";
  if max_entries < 1 then invalid_arg "Rescache.create: max_entries must be >= 1";
  let rec sent = { key = ""; cmd = ""; result = ""; size = 0; prev = sent; next = sent } in
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    sent;
    max_bytes;
    max_entries;
    bytes = 0;
    entries = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    stores = 0;
  }

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front t n =
  n.next <- t.sent.next;
  n.prev <- t.sent;
  t.sent.next.prev <- n;
  t.sent.next <- n

let remove_node t n =
  unlink n;
  Hashtbl.remove t.tbl n.key;
  t.bytes <- t.bytes - n.size;
  t.entries <- t.entries - 1

let find t key =
  Trace.with_span "service.cache.lookup" @@ fun () ->
  let r =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some n ->
          unlink n;
          push_front t n;
          t.hits <- t.hits + 1;
          Metrics.incr c_hits;
          Some n.result
        | None ->
          t.misses <- t.misses + 1;
          Metrics.incr c_misses;
          None)
  in
  if Trace.is_enabled () then Trace.add_args [ ("hit", Trace.Bool (Option.is_some r)) ];
  r

let store t ~key ~cmd ~result =
  let size = entry_size ~key ~cmd ~result in
  if size <= t.max_bytes then
    Mutex.protect t.lock @@ fun () ->
    Option.iter (remove_node t) (Hashtbl.find_opt t.tbl key);
    let n = { key; cmd; result; size; prev = t.sent; next = t.sent } in
    push_front t n;
    Hashtbl.replace t.tbl key n;
    t.bytes <- t.bytes + size;
    t.entries <- t.entries + 1;
    while t.bytes > t.max_bytes || t.entries > t.max_entries do
      (* the loop cannot empty the cache: the fresh entry fits by the
         size guard above, and [max_entries >= 1] *)
      remove_node t t.sent.prev;
      t.evictions <- t.evictions + 1;
      Metrics.incr c_evictions
    done;
    t.stores <- t.stores + 1;
    Metrics.incr c_stores;
    Metrics.set g_bytes (float_of_int t.bytes);
    Metrics.set g_entries (float_of_int t.entries)

let hits t = Mutex.protect t.lock (fun () -> t.hits)

let misses t = Mutex.protect t.lock (fun () -> t.misses)

let stats_json t =
  let num n = Jsonlite.Num (float_of_int n) in
  Mutex.protect t.lock @@ fun () ->
  let probes = t.hits + t.misses in
  Jsonlite.Obj
    [
      ("hits", num t.hits);
      ("misses", num t.misses);
      ( "hit_ratio",
        Jsonlite.Num
          (if probes = 0 then 0.0 else float_of_int t.hits /. float_of_int probes) );
      ("stores", num t.stores);
      ("evictions", num t.evictions);
      ("entries", num t.entries);
      ("bytes", num t.bytes);
      ("max_bytes", num t.max_bytes);
      ("max_entries", num t.max_entries);
    ]

(* ------------------------------------------------------------------ *)
(* Key derivation                                                       *)
(* ------------------------------------------------------------------ *)

(* Everything that can change a response byte goes through here; see the
   interface preamble for the rationale of each component. Fields are
   length-delimited ('|' plus explicit lengths where content is free
   text) so adjacent fields cannot alias. *)
let key_material ~cmd ~net ~with_name ~input_prob ~phases ~budget =
  let b = Buffer.create 256 in
  Buffer.add_string b "rckey2|";
  Buffer.add_string b cmd;
  Buffer.add_string b "|";
  Buffer.add_string b (Dpa_logic.Struct_hash.digest net);
  (if with_name then begin
     let name = Dpa_logic.Netlist.name net in
     Buffer.add_string b (Printf.sprintf "|name:%d:%s" (String.length name) name)
   end);
  Buffer.add_string b
    (Printf.sprintf "|p:%Lx" (Int64.bits_of_float input_prob));
  (match phases with
  | None -> Buffer.add_string b "|ph:-"
  | Some p -> Buffer.add_string b (Printf.sprintf "|ph:%d:%s" (String.length p) p));
  (match (budget : Protocol.budget_opts option) with
  | None -> Buffer.add_string b "|b:-"
  | Some { Protocol.max_bdd_nodes; deadline_s = _; fallback } ->
    Buffer.add_string b
      (Printf.sprintf "|b:%s:%s"
         (match max_bdd_nodes with None -> "-" | Some n -> string_of_int n)
         (Dpa_power.Engine.fallback_to_string fallback)));
  Buffer.contents b

let key (request : Protocol.request) =
  let cacheable ~with_name ~cmd ~source ~input_prob ~phases ~budget =
    match (budget : Protocol.budget_opts option) with
    | Some { Protocol.deadline_s = Some _; _ } ->
      (* ladder degradation under a deadline is wall-clock dependent:
         never cache, never probe *)
      None
    | _ -> (
      match Handler.load source with
      | net ->
        Some
          (Digest.to_hex
             (Digest.string
                (key_material ~cmd ~net ~with_name ~input_prob ~phases ~budget)))
      | exception _ ->
        (* unloadable source: let the cold path produce the error *)
        None)
  in
  match request with
  | Protocol.Estimate { source; input_prob; phases; budget } ->
    cacheable ~with_name:false ~cmd:"estimate" ~source ~input_prob ~phases ~budget
  | Protocol.Optimize { source; input_prob; seed = _; budget } ->
    cacheable ~with_name:false ~cmd:"optimize" ~source ~input_prob ~phases:None ~budget
  | Protocol.Compare { source; input_prob; seed = _; budget } ->
    (* the compare response echoes the netlist name as [circuit] *)
    cacheable ~with_name:true ~cmd:"compare" ~source ~input_prob ~phases:None ~budget
  | Protocol.Ping | Protocol.Info _ | Protocol.Stats | Protocol.Shutdown -> None

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let snapshot_magic = "dpa-rescache"

let snapshot_version = 1

(* LRU first: replaying the lines through [store] leaves the most
   recently used entries most recent again. *)
let dump t =
  Mutex.protect t.lock @@ fun () ->
  (* walking MRU→LRU and consing yields LRU-first *)
  let rec collect acc n =
    if n == t.sent then acc else collect ((n.key, n.cmd, n.result) :: acc) n.next
  in
  collect [] t.sent.next

let save t path =
  let entries = dump t in
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc
          (Printf.sprintf "{\"magic\":%s,\"version\":%d,\"entries\":%d}\n"
             (Jsonlite.encode (Jsonlite.Str snapshot_magic))
             snapshot_version (List.length entries));
        List.iter
          (fun (key, cmd, result) ->
            (* [result] is already encoded: splice it raw so the bytes
               survive the round trip untouched *)
            output_string oc
              (Printf.sprintf "{\"key\":%s,\"cmd\":%s,\"result\":%s}\n"
                 (Jsonlite.encode (Jsonlite.Str key))
                 (Jsonlite.encode (Jsonlite.Str cmd))
                 result))
          entries);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let is_hex_digest s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* Validate the whole file before a single entry becomes visible: a
   snapshot is loaded entirely or not at all. *)
let parse_snapshot text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty file"
  | header :: rest -> (
    match Jsonlite.parse header with
    | exception Jsonlite.Parse_error msg -> Error ("unparseable header: " ^ msg)
    | h -> (
      match
        ( Jsonlite.member_opt "magic" h,
          Jsonlite.member_opt "version" h,
          Jsonlite.member_opt "entries" h )
      with
      | Some (Jsonlite.Str m), _, _ when m <> snapshot_magic ->
        Error (Printf.sprintf "magic %S is not %S" m snapshot_magic)
      | _, Some (Jsonlite.Num v), _ when int_of_float v <> snapshot_version ->
        Error
          (Printf.sprintf "version %d, this build reads version %d" (int_of_float v)
             snapshot_version)
      | Some (Jsonlite.Str _), Some (Jsonlite.Num _), Some (Jsonlite.Num n) ->
        let declared = int_of_float n in
        if declared <> List.length rest then
          Error
            (Printf.sprintf "header declares %d entries, file holds %d" declared
               (List.length rest))
        else begin
          let parse_entry line =
            match Jsonlite.parse line with
            | exception Jsonlite.Parse_error msg -> Error ("unparseable entry: " ^ msg)
            | j -> (
              match
                ( Jsonlite.member_opt "key" j,
                  Jsonlite.member_opt "cmd" j,
                  Jsonlite.member_opt "result" j )
              with
              | Some (Jsonlite.Str key), Some (Jsonlite.Str cmd), Some result ->
                if not (is_hex_digest key) then Error "malformed key"
                  (* re-encoding a parse of encoder output is the
                     identity, so the stored bytes are preserved *)
                else Ok (key, cmd, Jsonlite.encode result)
              | _ -> Error "entry missing key/cmd/result")
          in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | line :: rest -> (
              match parse_entry line with
              | Ok e -> go (e :: acc) rest
              | Error _ as e -> e)
          in
          go [] rest
        end
      | _ -> Error "header missing magic/version/entries"))

let load t path =
  if not (Sys.file_exists path) then `Missing
  else begin
    let read () =
      match In_channel.with_open_bin path In_channel.input_all with
      | text -> Ok text
      | exception Sys_error msg -> Error msg
    in
    let outcome =
      match read () with
      | Error msg -> `Rejected msg
      | Ok text -> (
        match parse_snapshot text with
        | Error reason -> `Rejected reason
        | Ok entries ->
          List.iter (fun (key, cmd, result) -> store t ~key ~cmd ~result) entries;
          `Loaded (List.length entries))
    in
    (match outcome with `Rejected _ -> Metrics.incr c_snapshot_rejected | _ -> ());
    outcome
  end
