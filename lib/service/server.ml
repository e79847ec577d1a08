module Dpa_error = Dpa_util.Dpa_error
module Fault = Dpa_util.Fault
module Metrics = Dpa_obs.Metrics
module Clock = Dpa_obs.Clock

type config = {
  socket_path : string;
  workers : int;
  jobs : int;
  queue_capacity : int;
  max_request_bytes : int;
  cache_mb : int;
  cache_entries : int;
  cache_snapshot : string option;
}

let default_queue_capacity = 64

let default_max_request_bytes = 16 * 1024 * 1024

let default_cache_mb = 64

let default_cache_entries = 4096

(* A slow reader's response backlog is capped: past this the connection
   is dropped rather than letting the server buffer grow without bound. *)
let max_write_buffer = 64 * 1024 * 1024

(* Bytes attempted per [Unix.write]; bounds the copy out of the write
   buffer so a huge response does not stage itself whole on every
   partial flush. *)
let write_chunk_bytes = 256 * 1024

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  wmutex : Mutex.t;
  wbuf : Buffer.t;  (* response bytes not yet on the wire; under wmutex *)
  mutable woff : int;  (* consumed prefix of wbuf *)
  mutable pending : int;  (* jobs in flight whose reply targets this fd *)
  mutable eof : bool;  (* stop reading: client closed or I/O error *)
  mutable closed : bool;  (* fd closed; only the accept loop does this *)
  mutable stall_until : float;  (* Write_stall fault: no flush before this *)
}

type t = {
  config : config;
  queue : Pool.job Jobqueue.t;
  stopping : bool Atomic.t;
  wake_w : Unix.file_descr;  (* self-pipe: wakes the select loop *)
  mutable pool : Pool.t option;  (* set once in [run], before any submit *)
}

let c_accepted =
  Metrics.counter ~help:"client connections accepted" "service.connections.accepted"

let c_rejected =
  Metrics.counter ~help:"requests rejected because the server was draining"
    "service.rejected"

let c_overloaded =
  Metrics.counter ~help:"requests shed with an overloaded response"
    "service.overloaded"

let c_oversized =
  Metrics.counter ~help:"request frames rejected for exceeding max_request_bytes"
    "service.oversized"

let g_connections = Metrics.gauge ~help:"currently open connections" "service.connections"

let wake_byte = Bytes.make 1 '!'

let wake t =
  (* non-blocking pipe: a full pipe already guarantees a pending wakeup *)
  try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

let stop t =
  if not (Atomic.exchange t.stopping true) then wake t

(* Worker-side reply: append the response line to the connection's write
   buffer under its mutex and wake the select loop, which owns the fd.
   Workers never touch the socket, so a stalled client can only slow its
   own buffer down — never park a worker domain (head-of-line blocking).
   A reader falling further than [max_write_buffer] behind is dropped. *)
let conn_reply t conn line =
  Mutex.protect conn.wmutex (fun () ->
      if not (conn.closed || conn.eof) then begin
        Buffer.add_string conn.wbuf line;
        Buffer.add_char conn.wbuf '\n';
        if Buffer.length conn.wbuf - conn.woff > max_write_buffer then begin
          conn.eof <- true;
          Buffer.clear conn.wbuf;
          conn.woff <- 0
        end
      end;
      conn.pending <- conn.pending - 1);
  wake t

let conn_has_output conn =
  Mutex.protect conn.wmutex (fun () ->
      (not conn.closed) && Buffer.length conn.wbuf > conn.woff)

(* Select-loop-side flush: non-blocking writes until the buffer drains
   or the socket would block. The armed [Write_stall] fault freezes the
   flush for its parameter duration — the soak's way of producing slow
   readers on demand. *)
let flush_conn conn =
  Mutex.protect conn.wmutex @@ fun () ->
  if not conn.closed then begin
    if conn.stall_until = 0.0 && Fault.active () && Fault.fire Fault.Write_stall then
      conn.stall_until <- Unix.gettimeofday () +. Fault.param Fault.Write_stall;
    if conn.stall_until > 0.0 && Unix.gettimeofday () < conn.stall_until then ()
    else begin
      conn.stall_until <- 0.0;
      let continue = ref true in
      while !continue do
        let len = Buffer.length conn.wbuf in
        if conn.woff >= len then begin
          Buffer.clear conn.wbuf;
          conn.woff <- 0;
          continue := false
        end
        else begin
          let chunk = min (len - conn.woff) write_chunk_bytes in
          let data = Bytes.create chunk in
          Buffer.blit conn.wbuf conn.woff data 0 chunk;
          match Unix.write conn.fd data 0 chunk with
          | 0 -> continue := false
          | n -> conn.woff <- conn.woff + n
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            continue := false
          | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _) ->
            conn.eof <- true;
            Buffer.clear conn.wbuf;
            conn.woff <- 0;
            continue := false
        end
      done
    end
  end

let drain_error =
  Dpa_error.Invalid_input "server is draining after shutdown; request rejected"

let reject t conn line =
  Metrics.incr c_rejected;
  Mutex.protect conn.wmutex (fun () -> conn.pending <- conn.pending + 1);
  conn_reply t conn (Protocol.error_response ~id:(Protocol.salvage_id line) drain_error)

let submit t conn line =
  if Atomic.get t.stopping then reject t conn line
  else begin
    Mutex.protect conn.wmutex (fun () -> conn.pending <- conn.pending + 1);
    let job = { Pool.line; enqueued_ns = Clock.now_ns (); reply = conn_reply t conn } in
    match Jobqueue.try_push t.queue job with
    | `Ok -> ()
    | `Closed ->
      (* queue closed between the stopping check and the push *)
      Mutex.protect conn.wmutex (fun () -> conn.pending <- conn.pending - 1);
      reject t conn line
    | `Full ->
      (* explicit shedding: a structured [overloaded] answer with a
         backoff hint instead of a blocked accept loop *)
      Metrics.incr c_overloaded;
      let retry_after_ms =
        match t.pool with Some p -> Pool.suggest_retry_ms p | None -> 100
      in
      conn_reply t conn
        (Protocol.error_response ~id:(Protocol.salvage_id line)
           (Dpa_error.Overloaded { retry_after_ms }))
  end

let oversized_error t conn ~bytes =
  Metrics.incr c_oversized;
  Mutex.protect conn.wmutex (fun () -> conn.pending <- conn.pending + 1);
  conn_reply t conn
    (Protocol.error_response ~id:0
       (Dpa_error.Invalid_input
          (Printf.sprintf "request frame of %d bytes exceeds max_request_bytes=%d"
             bytes t.config.max_request_bytes)))

(* Extract every complete line from the connection buffer and submit it;
   the tail (no newline yet) stays buffered. A frame larger than
   [max_request_bytes] — complete or still growing — is answered with a
   structured error before the parser ever sees it; a growing one also
   ends the connection, because the line boundary is lost. *)
let drain_lines t conn =
  let data = Buffer.contents conn.rbuf in
  let n = String.length data in
  let start = ref 0 in
  (try
     while !start < n do
       let nl = String.index_from data !start '\n' in
       let len = nl - !start in
       let len = if len > 0 && data.[!start + len - 1] = '\r' then len - 1 else len in
       if len > t.config.max_request_bytes then oversized_error t conn ~bytes:len
       else begin
         let line = String.sub data !start len in
         if String.trim line <> "" then submit t conn line
       end;
       start := nl + 1
     done
   with Not_found -> ());
  Buffer.clear conn.rbuf;
  Buffer.add_substring conn.rbuf data !start (n - !start);
  if Buffer.length conn.rbuf > t.config.max_request_bytes then begin
    oversized_error t conn ~bytes:(Buffer.length conn.rbuf);
    Buffer.clear conn.rbuf;
    Mutex.protect conn.wmutex (fun () -> conn.eof <- true)
  end

let read_chunk = Bytes.create 65536

let handle_readable t conn =
  match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> Mutex.protect conn.wmutex (fun () -> conn.eof <- true)
  | n ->
    Buffer.add_subbytes conn.rbuf read_chunk 0 n;
    drain_lines t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
    Mutex.protect conn.wmutex (fun () -> conn.eof <- true)

(* Close a connection's fd once nothing will write to it again. Returns
   [true] when the connection is gone. *)
let reap conn =
  Mutex.protect conn.wmutex @@ fun () ->
  if
    (not conn.closed) && conn.eof && conn.pending = 0
    && Buffer.length conn.wbuf <= conn.woff
  then begin
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    conn.closed <- true
  end;
  conn.closed

let bind_socket path =
  (* a stale socket file from a crashed server is replaced; a live one is
     indistinguishable here, so serve documents single-instance sockets *)
  if Sys.file_exists path then (try Unix.unlink path with Sys_error _ | Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Dpa_error.error
       (Dpa_error.Io
          (Printf.sprintf "cannot bind socket %s: %s" path (Unix.error_message err))));
  Unix.listen fd 64;
  fd

(* After the pool has drained, write buffers may still hold response
   bytes: push them out with a bounded blocking-ish loop so the last
   responses of a drain are never lost to process exit. *)
let final_flush conns =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go conns =
    let live =
      List.filter (fun c -> conn_has_output c && not c.eof) conns
    in
    if live <> [] && Unix.gettimeofday () < deadline then begin
      List.iter (fun c -> c.stall_until <- 0.0) live;
      List.iter flush_conn live;
      let still = List.filter (fun c -> conn_has_output c && not c.eof) live in
      if still <> [] then begin
        (match Unix.select [] (List.map (fun c -> c.fd) still) [] 0.05 with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | _ -> ());
        go still
      end
    end
  in
  go conns

let run ?(on_ready = fun (_ : t) -> ()) config =
  if config.workers < 1 then invalid_arg "Server.run: workers must be >= 1";
  if config.jobs < 1 then invalid_arg "Server.run: jobs must be >= 1";
  if config.max_request_bytes < 1 then
    invalid_arg "Server.run: max_request_bytes must be >= 1";
  (* a client that disconnects mid-reply must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = bind_socket config.socket_path in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let queue = Jobqueue.create ~capacity:config.queue_capacity in
  let t = { config; queue; stopping = Atomic.make false; wake_w; pool = None } in
  (* the shared result cache, warmed from the snapshot when one exists.
     A corrupt or version-skewed snapshot means a cold start with a
     structured warning — never a refused boot. *)
  let cache =
    if config.cache_mb <= 0 then None
    else
      Some
        (Rescache.create
           ~max_bytes:(config.cache_mb * 1024 * 1024)
           ~max_entries:config.cache_entries ())
  in
  (match (cache, config.cache_snapshot) with
  | Some c, Some path -> (
    match Rescache.load c path with
    | `Loaded _ | `Missing -> ()
    | `Rejected reason ->
      Printf.eprintf "dominoflow: warning: cache snapshot %s rejected (%s); starting cold\n%!"
        path reason)
  | _ -> ());
  let pool =
    Pool.create ~jobs:config.jobs ~workers:config.workers ?cache
      ~on_shutdown:(fun () -> stop t)
      queue
  in
  t.pool <- Some pool;
  let conns = ref [] in
  let wake_buf = Bytes.create 4096 in
  on_ready t;
  (* accept/read/flush loop: runs until a shutdown is requested *)
  while not (Atomic.get t.stopping) do
    let readable_conns = List.filter (fun c -> not (c.eof || c.closed)) !conns in
    let read_fds = listen_fd :: wake_r :: List.map (fun c -> c.fd) readable_conns in
    let now = Unix.gettimeofday () in
    let writable_conns =
      (* stalled connections are left out so an armed Write_stall does
         not spin the loop; the 0.25s timeout retries them *)
      List.filter
        (fun c -> conn_has_output c && (not c.eof) && c.stall_until <= now)
        !conns
    in
    let write_fds = List.map (fun c -> c.fd) writable_conns in
    (* finite timeout: watchdog ticks, stall expiries and reaping happen
       even when no fd turns ready *)
    (match Unix.select read_fds write_fds [] 0.25 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready_r, ready_w, _ ->
      if List.mem wake_r ready_r then (
        try ignore (Unix.read wake_r wake_buf 0 (Bytes.length wake_buf))
        with Unix.Unix_error _ -> ());
      if List.mem listen_fd ready_r then begin
        match Unix.accept listen_fd with
        | fd, _ ->
          Metrics.incr c_accepted;
          Unix.set_nonblock fd;
          conns :=
            {
              fd;
              rbuf = Buffer.create 1024;
              wmutex = Mutex.create ();
              wbuf = Buffer.create 1024;
              woff = 0;
              pending = 0;
              eof = false;
              closed = false;
              stall_until = 0.0;
            }
            :: !conns
        | exception Unix.Unix_error ((ECONNABORTED | EINTR | EAGAIN | EWOULDBLOCK), _, _)
          -> ()
      end;
      List.iter (fun c -> if List.mem c.fd ready_r then handle_readable t c) readable_conns;
      List.iter (fun c -> if List.mem c.fd ready_w then flush_conn c) writable_conns);
    (* flush stall expiries missed by the writable set *)
    List.iter
      (fun c ->
        if c.stall_until > 0.0 && c.stall_until <= Unix.gettimeofday () then flush_conn c)
      !conns;
    Pool.watch pool;
    conns := List.filter (fun c -> not (reap c)) !conns;
    Metrics.set g_connections (float_of_int (List.length !conns))
  done;
  (* drain: no new connections or requests; queued jobs still execute *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink config.socket_path with Sys_error _ | Unix.Unix_error _ -> ());
  Jobqueue.close queue;
  Pool.join pool;
  (* workers are gone: the cache is quiescent, so the graceful-drain
     snapshot sees a consistent final state *)
  (match (cache, config.cache_snapshot) with
  | Some c, Some path -> (
    match Rescache.save c path with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "dominoflow: warning: cache snapshot %s not written (%s)\n%!" path
        msg)
  | _ -> ());
  (* workers are gone, so buffers and pending counts are final: flush
     the last responses, then close every connection *)
  final_flush !conns;
  List.iter
    (fun c ->
      ignore
        (Mutex.protect c.wmutex (fun () ->
             c.eof <- true;
             c.pending <- 0;
             Buffer.clear c.wbuf;
             c.woff <- 0));
      ignore (reap c))
    !conns;
  conns := [];
  Metrics.set g_connections 0.0;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  try Unix.close wake_w with Unix.Unix_error _ -> ()
