module Dpa_error = Dpa_util.Dpa_error
module Jsonlite = Dpa_util.Jsonlite
module Fault = Dpa_util.Fault

type t = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
}

let io_error fmt =
  Printf.ksprintf (fun msg -> Dpa_error.error (Dpa_error.Io msg)) fmt

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     io_error "cannot connect to %s: %s" path (Unix.error_message err));
  { fd; rbuf = Buffer.create 1024 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd data =
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (len - !off)
  done

(* One buffered line (newline stripped), or [None] at end of stream. *)
let read_line t =
  let chunk = Bytes.create 65536 in
  let rec take () =
    let data = Buffer.contents t.rbuf in
    match String.index_opt data '\n' with
    | Some nl ->
      let line = String.sub data 0 nl in
      Buffer.clear t.rbuf;
      Buffer.add_substring t.rbuf data (nl + 1) (String.length data - nl - 1);
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Some line
    | None -> (
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> if Buffer.length t.rbuf = 0 then None else io_error "truncated response line"
      | n ->
        Buffer.add_subbytes t.rbuf chunk 0 n;
        take ()
      | exception Unix.Unix_error (ECONNRESET, _, _) -> None)
  in
  take ()

let request t line =
  write_all t.fd (Bytes.of_string (line ^ "\n"));
  match read_line t with
  | Some response -> response
  | None -> io_error "server closed the connection before responding"

(* ------------------------------------------------------------------ *)
(* Pipelined batch                                                      *)
(* ------------------------------------------------------------------ *)

(* One pipelined exchange over one connection: write every line, read
   until [expect] responses arrived or the connection died. Client-side
   fault injection lives here: an armed [Torn_frame] splits a write into
   a short piece plus a delayed remainder, an armed [Drop_conn] hangs up
   mid-exchange — both of which the retrying wrapper must survive. *)
type pump_result = {
  got : string list;  (* arrival order *)
  dropped : bool;  (* connection died before [expect] responses *)
}

let pump t ~expect lines =
  if expect = 0 then { got = []; dropped = false }
  else begin
    Unix.set_nonblock t.fd;
    let out = Bytes.of_string (String.concat "\n" lines ^ "\n") in
    let out_len = Bytes.length out in
    let sent = ref 0 in
    let responses = ref [] in
    let received = ref 0 in
    let dropped = ref false in
    let chunk = Bytes.create 65536 in
    let faults = Fault.active () in
    (* one select-driven pump: keep writing while reading, so a full
       buffer on either side never deadlocks the exchange *)
    (try
       while (not !dropped) && !received < expect do
         begin
           let want_write = !sent < out_len in
           match Unix.select [ t.fd ] (if want_write then [ t.fd ] else []) [] (-1.0) with
           | exception Unix.Unix_error (EINTR, _, _) -> ()
           | readable, writable, _ ->
             (if writable <> [] then
                if faults && Fault.fire Fault.Drop_conn then begin
                  (* hang up mid-batch: written requests may already be
                     executing, their responses are lost with the fd *)
                  (try Unix.close t.fd with Unix.Unix_error _ -> ());
                  dropped := true
                end
                else
                  try
                    let remaining = out_len - !sent in
                    if faults && Fault.fire Fault.Torn_frame && remaining > 1 then begin
                      (* tear: a few bytes now, the rest after a pause *)
                      sent := !sent + Unix.write t.fd out !sent (min 7 remaining);
                      Fault.sleep Fault.Torn_frame
                    end
                    else sent := !sent + Unix.write t.fd out !sent remaining
                  with
                  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
                  | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _) ->
                    dropped := true);
             if (not !dropped) && readable <> [] then begin
               match Unix.read t.fd chunk 0 (Bytes.length chunk) with
               | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
               | exception Unix.Unix_error ((ECONNRESET | EBADF | ENOTCONN), _, _) ->
                 dropped := true
               | 0 -> dropped := true
               | n ->
                 Buffer.add_subbytes t.rbuf chunk 0 n;
                 let data = Buffer.contents t.rbuf in
                 let len = String.length data in
                 let start = ref 0 in
                 (try
                    while !start < len do
                      let nl = String.index_from data !start '\n' in
                      responses := String.sub data !start (nl - !start) :: !responses;
                      incr received;
                      start := nl + 1
                    done
                  with Not_found -> ());
                 Buffer.clear t.rbuf;
                 Buffer.add_substring t.rbuf data !start (len - !start)
             end
         end
       done
     with Unix.Unix_error (EBADF, _, _) -> dropped := true);
    { got = List.rev !responses; dropped = !dropped }
  end

let run_batch_once ~socket lines =
  let expect = List.length lines in
  if expect = 0 then []
  else begin
    let t = connect socket in
    Fun.protect ~finally:(fun () -> close t) @@ fun () ->
    let r = pump t ~expect lines in
    if r.dropped then
      io_error "server closed the connection after %d of %d responses"
        (List.length r.got) expect;
    r.got
  end

(* ------------------------------------------------------------------ *)
(* Retrying batch                                                       *)
(* ------------------------------------------------------------------ *)

type retry = {
  max_attempts : int;
  base_delay_ms : int;
  max_delay_ms : int;
  jitter : float;
  seed : int;
}

let default_retry =
  { max_attempts = 4; base_delay_ms = 50; max_delay_ms = 2000; jitter = 0.2; seed = 0 }

let request_id line =
  match Jsonlite.parse line with
  | exception Jsonlite.Parse_error _ -> None
  | json -> (
    match Jsonlite.member_opt "id" json with
    | Some (Jsonlite.Num f) when Float.is_integer f && f > 0.0 -> Some (int_of_float f)
    | _ -> None)

(* [Some (ids, by_id)] iff every line carries a distinct positive id —
   the precondition for resubmitting just the unanswered ones. *)
let correlatable lines =
  let tbl = Hashtbl.create 64 in
  let rec go acc = function
    | [] -> Some (List.rev acc, tbl)
    | line :: rest -> (
      match request_id line with
      | Some id when not (Hashtbl.mem tbl id) ->
        Hashtbl.add tbl id line;
        go (id :: acc) rest
      | _ -> None)
  in
  go [] lines

(* An [overloaded] response is an invitation to retry, not an answer:
   pull out its backoff hint. Returns [None] for every other response. *)
let overloaded_hint line =
  match Protocol.parse_response line with
  | Error _ -> None
  | Ok { Protocol.ok = true; _ } -> None
  | Ok { Protocol.rid; result; _ } -> (
    match Jsonlite.member_opt "kind" result with
    | Some (Jsonlite.Str "overloaded") ->
      let hint =
        match Jsonlite.member_opt "retry_after_ms" result with
        | Some (Jsonlite.Num f) when f > 0.0 -> int_of_float f
        | _ -> 0
      in
      Some (rid, hint)
    | _ -> None)

let sleep_ms ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0)

let run_batch ?retry ~socket lines =
  match retry with
  | None -> run_batch_once ~socket lines
  | Some policy -> (
    if policy.max_attempts < 1 then invalid_arg "Client.run_batch: max_attempts must be >= 1";
    match correlatable lines with
    | None ->
      (* without distinct positive ids there is no way to tell which
         requests a partial exchange answered: single attempt *)
      run_batch_once ~socket lines
    | Some (ids, by_id) ->
      let rng = Dpa_util.Rng.create policy.seed in
      let answers : (int, string) Hashtbl.t = Hashtbl.create (List.length ids) in
      let unanswered () = List.filter (fun id -> not (Hashtbl.mem answers id)) ids in
      let attempt = ref 0 in
      let finished = ref false in
      while not !finished do
        incr attempt;
        let todo = unanswered () in
        if todo = [] then finished := true
        else begin
          let todo_lines = List.map (Hashtbl.find by_id) todo in
          let expect = List.length todo_lines in
          let r =
            match connect socket with
            | t ->
              Fun.protect ~finally:(fun () -> close t) (fun () -> pump t ~expect todo_lines)
            | exception Dpa_error.Error (Dpa_error.Io _) ->
              (* connect refused: treat like a dropped exchange *)
              { got = []; dropped = true }
          in
          (* keep final answers; overloaded responses stay unanswered
             and size the backoff *)
          let max_hint = ref 0 in
          List.iter
            (fun line ->
              match overloaded_hint line with
              | Some (_, hint) -> max_hint := max !max_hint hint
              | None -> (
                match Protocol.parse_response line with
                | Ok { Protocol.rid; _ } when Hashtbl.mem by_id rid ->
                  Hashtbl.replace answers rid line
                | Ok _ | Error _ -> ()))
            r.got;
          if unanswered () = [] then finished := true
          else if !attempt >= policy.max_attempts then begin
            let missing = unanswered () in
            io_error "batch gave up after %d attempts with %d of %d requests unanswered (ids %s)"
              !attempt (List.length missing) (List.length ids)
              (String.concat "," (List.map string_of_int missing))
          end
          else begin
            (* capped exponential backoff with jitter, stretched by the
               server's own retry_after hint when it sent one *)
            let expo =
              min policy.max_delay_ms (policy.base_delay_ms * (1 lsl min 16 (!attempt - 1)))
            in
            let base = max expo !max_hint in
            let jitter_span = policy.jitter *. float_of_int base in
            let delta =
              if jitter_span > 0.0 then
                Dpa_util.Rng.float rng (2.0 *. jitter_span) -. jitter_span
              else 0.0
            in
            sleep_ms (max 0 (base + int_of_float delta))
          end
        end
      done;
      (* request order, so callers can zip with their inputs *)
      List.map (fun id -> Hashtbl.find answers id) ids)

(* ------------------------------------------------------------------ *)
(* Self-hosted server                                                   *)
(* ------------------------------------------------------------------ *)

let fresh_socket_path () =
  let path = Filename.temp_file "dpa_service" ".sock" in
  (* temp_file creates the file; the server wants to bind the name *)
  (try Sys.remove path with Sys_error _ -> ());
  path

let with_self_hosted ~workers ?(jobs = 1) ?(queue_capacity = Server.default_queue_capacity)
    ?(max_request_bytes = Server.default_max_request_bytes) ?cache_snapshot f =
  let socket = fresh_socket_path () in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let handle = ref None in
  let failure = ref None in
  let signal_ready h =
    Mutex.protect mutex (fun () ->
        handle := Some h;
        Condition.broadcast cond)
  in
  let server =
    Domain.spawn (fun () ->
        try
          Server.run ~on_ready:signal_ready
            {
              Server.socket_path = socket;
              workers;
              jobs;
              queue_capacity;
              max_request_bytes;
              cache_mb = Server.default_cache_mb;
              cache_entries = Server.default_cache_entries;
              cache_snapshot;
            }
        with e ->
          Mutex.protect mutex (fun () ->
              failure := Some e;
              Condition.broadcast cond);
          raise e)
  in
  let ready =
    Mutex.protect mutex (fun () ->
        while !handle = None && !failure = None do
          Condition.wait cond mutex
        done;
        !handle)
  in
  match ready with
  | None ->
    (* the server died before listening; join re-raises its exception *)
    Domain.join server;
    assert false
  | Some h ->
    Fun.protect
      ~finally:(fun () ->
        Server.stop h;
        Domain.join server;
        try Sys.remove socket with Sys_error _ -> ())
      (fun () -> f ~socket)
