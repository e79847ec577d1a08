(* The service layer end to end: wire-protocol round-trips for every
   request kind, structured errors for malformed input (and the worker
   surviving them), the bounded job queue's blocking/close semantics,
   bit-identity of concurrent service results against the sequential
   in-process pipeline, and graceful shutdown draining in-flight work.

   The server tests run a real server — own domain, real Unix socket,
   real worker pool — via [Client.with_self_hosted], so they cover the
   same code path as [dominoflow serve]. *)

module Jsonlite = Dpa_util.Jsonlite
module Dpa_error = Dpa_util.Dpa_error
module Protocol = Dpa_service.Protocol
module Handler = Dpa_service.Handler
module Jobqueue = Dpa_service.Jobqueue
module Client = Dpa_service.Client

let frg1 = "../data/frg1_synthetic.blif"
let apex7 = "../data/apex7_synthetic.blif"

let roundtrip env =
  match Protocol.parse_request (Protocol.request_line env) with
  | Ok env' -> env'
  | Error e -> Alcotest.failf "round-trip failed: %s" (Dpa_error.to_string e)

(* ---- protocol round-trips ----------------------------------------- *)

let test_roundtrip_simple () =
  List.iter
    (fun request ->
      let env = { Protocol.id = 42; request; cache = `Use } in
      let env' = roundtrip env in
      Alcotest.(check int) "id" 42 env'.Protocol.id;
      Alcotest.(check string)
        "cmd"
        (Protocol.cmd_name request)
        (Protocol.cmd_name env'.Protocol.request))
    [ Protocol.Ping; Protocol.Shutdown ]

let test_roundtrip_estimate () =
  let request =
    Protocol.Estimate
      {
        source = Protocol.Inline { text = "in a\nout y = a\n"; format = `Dln };
        input_prob = 0.25;
        phases = Some "+-";
        budget =
          Some
            {
              Protocol.max_bdd_nodes = Some 4096;
              deadline_s = Some 1.5;
              fallback = Dpa_power.Engine.No_fallback;
            };
      }
  in
  match (roundtrip { Protocol.id = 7; request; cache = `Use }).Protocol.request with
  | Protocol.Estimate { source; input_prob; phases; budget } ->
    (match source with
    | Protocol.Inline { text; format = `Dln } ->
      Alcotest.(check string) "inline text" "in a\nout y = a\n" text
    | _ -> Alcotest.fail "source changed shape");
    Alcotest.(check (float 0.0)) "input_prob" 0.25 input_prob;
    Alcotest.(check (option string)) "phases" (Some "+-") phases;
    (match budget with
    | Some { Protocol.max_bdd_nodes; deadline_s; fallback } ->
      Alcotest.(check (option int)) "max_bdd_nodes" (Some 4096) max_bdd_nodes;
      Alcotest.(check (option (float 0.0))) "deadline_s" (Some 1.5) deadline_s;
      Alcotest.(check bool) "fallback" true (fallback = Dpa_power.Engine.No_fallback)
    | None -> Alcotest.fail "budget dropped")
  | _ -> Alcotest.fail "request changed kind"

let test_roundtrip_flow_cmds () =
  List.iter
    (fun make ->
      let request =
        make
          ~source:(Protocol.File "design.blif")
          ~input_prob:0.75 ~seed:9 ~budget:None
      in
      match (roundtrip { Protocol.id = 3; request; cache = `Use }).Protocol.request with
      | Protocol.Optimize { source = Protocol.File p; input_prob; seed; budget = None }
      | Protocol.Compare { source = Protocol.File p; input_prob; seed; budget = None } ->
        Alcotest.(check string) "file" "design.blif" p;
        Alcotest.(check (float 0.0)) "input_prob" 0.75 input_prob;
        Alcotest.(check int) "seed" 9 seed
      | _ -> Alcotest.fail "request changed shape")
    [
      (fun ~source ~input_prob ~seed ~budget ->
        Protocol.Optimize { source; input_prob; seed; budget });
      (fun ~source ~input_prob ~seed ~budget ->
        Protocol.Compare { source; input_prob; seed; budget });
    ]

(* The flow's phase search never reads the seed (the cache key leaves it
   out for that reason): optimize and compare answer the same bytes at
   any seed, on the exhaustive path (frg1) and the greedy one (apex7). *)
let test_seed_changes_no_answer () =
  List.iter
    (fun path ->
      List.iter
        (fun (cmd, make) ->
          let answer seed =
            Jsonlite.encode
              (Handler.execute
                 (make ~source:(Protocol.File path) ~input_prob:0.7 ~seed ~budget:None))
          in
          Alcotest.(check string) (Printf.sprintf "%s %s seeds 1, 7" cmd path) (answer 1)
            (answer 7))
        [
          ( "optimize",
            fun ~source ~input_prob ~seed ~budget ->
              Protocol.Optimize { source; input_prob; seed; budget } );
          ( "compare",
            fun ~source ~input_prob ~seed ~budget ->
              Protocol.Compare { source; input_prob; seed; budget } );
        ])
    [ frg1; apex7 ]

let test_roundtrip_info () =
  match
    (roundtrip
       {
         Protocol.id = 1;
         request = Protocol.Info { source = Protocol.File "x.dln" };
         cache = `Use;
       })
      .Protocol.request
  with
  | Protocol.Info { source = Protocol.File p } -> Alcotest.(check string) "file" "x.dln" p
  | _ -> Alcotest.fail "request changed shape"

(* ---- request validation ------------------------------------------- *)

let expect_error line =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "expected an error for %s" line
  | Error e -> e

let test_malformed_json_is_parse_error () =
  match expect_error "{not json" with
  | Dpa_error.Parse _ -> ()
  | e -> Alcotest.failf "wanted Parse, got %s" (Dpa_error.to_string e)

let test_validation_errors () =
  let invalid line =
    match expect_error line with
    | Dpa_error.Invalid_input _ -> ()
    | e -> Alcotest.failf "wanted Invalid_input for %s, got %s" line (Dpa_error.to_string e)
  in
  invalid "[1,2]";
  invalid {|{"cmd":"frobnicate"}|};
  invalid {|{"cmd":"estimate"}|};
  invalid {|{"cmd":"estimate","file":"a","netlist":"b"}|};
  invalid {|{"cmd":"estimate","file":"a","input_prob":1.5}|};
  invalid {|{"cmd":"estimate","file":"a","max_bdd_nodes":-3}|};
  invalid {|{"cmd":"estimate","file":"a","fallback":"maybe"}|};
  invalid {|{"cmd":"estimate","netlist":"in a\nout y = a\n","format":"vhdl"}|}

let test_retired_wire_field_ignored () =
  (* the simulator selector older clients still send is an unknown
     field like any other: whatever it says, the line parses to the
     request without it and shares its cache key — budgeted or not *)
  let parse line =
    match Protocol.parse_request line with
    | Ok env -> env
    | Error e -> Alcotest.failf "%s: %s" line (Dpa_error.to_string e)
  in
  List.iter
    (fun budget ->
      let line extra =
        Printf.sprintf {|{"id":3,"cmd":"estimate","file":"%s"%s%s}|} frg1 budget extra
      in
      let expected = parse (line "") in
      let key = Dpa_service.Rescache.key expected.Protocol.request in
      Alcotest.(check bool) "cacheable" true (key <> None);
      List.iter
        (fun value ->
          let env = parse (line (Printf.sprintf {|,"sim_backend":"%s"|} value)) in
          Alcotest.(check bool) (value ^ ": same request") true (env = expected);
          Alcotest.(check (option string))
            (value ^ ": same key") key
            (Dpa_service.Rescache.key env.Protocol.request))
        [ "interp"; "compiled"; "bogus" ])
    [ ""; {|,"max_bdd_nodes":50|} ]

let test_error_response_shape () =
  let line = Protocol.error_response ~id:5 (Dpa_error.Invalid_input "nope") in
  let json = Jsonlite.parse line in
  Alcotest.(check bool) "ok" false (Jsonlite.to_bool (Jsonlite.member "ok" json));
  Alcotest.(check int) "id" 5 (Jsonlite.to_int (Jsonlite.member "id" json));
  let err = Jsonlite.member "error" json in
  Alcotest.(check string)
    "kind" "invalid-input"
    (Jsonlite.to_string (Jsonlite.member "kind" err));
  Alcotest.(check int) "exit_code" 65 (Jsonlite.to_int (Jsonlite.member "exit_code" err))

(* ---- float fidelity through the encoder --------------------------- *)

let test_encode_floats_roundtrip () =
  List.iter
    (fun f ->
      let encoded = Jsonlite.encode (Jsonlite.Num f) in
      match Jsonlite.parse encoded with
      | Jsonlite.Num f' ->
        if f <> f' then Alcotest.failf "%.17g reparsed as %.17g via %s" f f' encoded
      | _ -> Alcotest.failf "%s did not parse as a number" encoded)
    [
      0.1; 1.0 /. 3.0; 0.30000000000000004; 1e-17; 6.02214076e23; 217.88970947265625;
      0.0; 1.0; -1.0; 4503599627370497.0;
    ]

(* ---- job queue ----------------------------------------------------- *)

let test_jobqueue_fifo_and_close () =
  let q = Jobqueue.create ~capacity:4 in
  Alcotest.(check bool) "push a" true (Jobqueue.push q "a");
  Alcotest.(check bool) "push b" true (Jobqueue.push q "b");
  Alcotest.(check int) "length" 2 (Jobqueue.length q);
  Jobqueue.close q;
  Alcotest.(check bool) "push after close" false (Jobqueue.push q "c");
  (* close drains: queued jobs are still handed out, then None *)
  Alcotest.(check (option string)) "pop a" (Some "a") (Jobqueue.pop q);
  Alcotest.(check (option string)) "pop b" (Some "b") (Jobqueue.pop q);
  Alcotest.(check (option string)) "pop end" None (Jobqueue.pop q)

let test_jobqueue_blocking_handoff () =
  (* capacity 1: the producer can only advance as the consumer pops, so a
     full producer/consumer cycle across domains proves both condition
     variables actually wake their waiters *)
  let q = Jobqueue.create ~capacity:1 in
  let n = 100 in
  let consumer =
    Domain.spawn (fun () ->
        let rec take acc =
          match Jobqueue.pop q with Some v -> take (v :: acc) | None -> List.rev acc
        in
        take [])
  in
  for i = 1 to n do
    ignore (Jobqueue.push q (string_of_int i))
  done;
  Jobqueue.close q;
  let got = Domain.join consumer in
  Alcotest.(check int) "all delivered" n (List.length got);
  Alcotest.(check (list string))
    "in order"
    (List.init n (fun i -> string_of_int (i + 1)))
    got

(* ---- the server end to end ---------------------------------------- *)

let test_server_ping_and_malformed () =
  Client.with_self_hosted ~workers:1 (fun ~socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* malformed JSON: a structured parse error comes back... *)
      let r = Client.request c "this is not json" in
      (match Protocol.parse_response r with
      | Ok { Protocol.ok = false; result; _ } ->
        Alcotest.(check string)
          "kind" "parse"
          (Jsonlite.to_string (Jsonlite.member "kind" result))
      | Ok _ -> Alcotest.fail "malformed line was accepted"
      | Error msg -> Alcotest.failf "unparseable response: %s" msg);
      (* ...and the worker survives to serve the next request *)
      let r = Client.request c {|{"id":2,"cmd":"ping"}|} in
      match Protocol.parse_response r with
      | Ok { Protocol.rid = 2; ok = true; _ } -> ()
      | _ -> Alcotest.failf "worker did not survive the malformed line: %s" r)

let test_server_missing_file_is_io_error () =
  Client.with_self_hosted ~workers:1 (fun ~socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let r = Client.request c {|{"id":1,"cmd":"estimate","file":"/nonexistent.blif"}|} in
      match Protocol.parse_response r with
      | Ok { Protocol.ok = false; result; _ } ->
        Alcotest.(check string)
          "kind" "io"
          (Jsonlite.to_string (Jsonlite.member "kind" result))
      | _ -> Alcotest.failf "wanted an io error, got %s" r)

(* Bit-identity: many concurrent estimates across a 4-domain pool must
   reproduce the sequential in-process pipeline byte for byte — private
   BDD managers per worker may not change a single ulp of any
   probability or power figure. *)
let test_server_concurrent_bit_identity () =
  let files = [ frg1; apex7 ] in
  let copies = 4 in
  let envelopes =
    List.concat_map
      (fun file ->
        List.init copies (fun k ->
            {
              Protocol.id = (Hashtbl.hash (file, k) land 0xFFFF);
              request =
                Protocol.Estimate
                  {
                    source = Protocol.File file;
                    input_prob = 0.5;
                    phases = None;
                    budget = None;
                  };
              (* bypass: this test measures the pool, not the cache — 4
                 identical copies per file would otherwise collapse into
                 one execution and three hits *)
              cache = `Bypass;
            }))
      files
  in
  (* ids must be distinct for response correlation *)
  let envelopes =
    List.mapi (fun i e -> { e with Protocol.id = i + 1 }) envelopes
  in
  let expected =
    List.map
      (fun e ->
        ( e.Protocol.id,
          Protocol.ok_response ~id:e.Protocol.id
            ~cmd:(Protocol.cmd_name e.Protocol.request)
            (Handler.execute e.Protocol.request) ))
      envelopes
  in
  Client.with_self_hosted ~workers:4 (fun ~socket ->
      let responses =
        Client.run_batch ~socket (List.map Protocol.request_line envelopes)
      in
      Alcotest.(check int)
        "one response per request"
        (List.length envelopes) (List.length responses);
      List.iter
        (fun line ->
          match Protocol.parse_response line with
          | Ok { Protocol.rid; _ } ->
            let want =
              match List.assoc_opt rid expected with
              | Some w -> w
              | None -> Alcotest.failf "unknown response id %d" rid
            in
            Alcotest.(check string)
              (Printf.sprintf "response %d bit-identical" rid)
              want line
          | Error msg -> Alcotest.failf "unparseable response: %s" msg)
        responses)

let test_server_shutdown_drains () =
  (* pipeline several estimates, then shutdown, over one connection with a
     single worker: every estimate must still be answered (the queue is
     drained, not dropped) and the response set must include the shutdown
     acknowledgment *)
  let estimates =
    List.init 5 (fun i ->
        Protocol.request_line
          {
            Protocol.id = i + 1;
            request =
              Protocol.Estimate
                {
                  source = Protocol.File frg1;
                  input_prob = 0.5;
                  phases = None;
                  budget = None;
                };
            cache = `Bypass;
          })
  in
  let shutdown =
    Protocol.request_line { Protocol.id = 99; request = Protocol.Shutdown; cache = `Use }
  in
  Client.with_self_hosted ~workers:1 (fun ~socket ->
      let responses = Client.run_batch ~socket (estimates @ [ shutdown ]) in
      Alcotest.(check int) "all answered" 6 (List.length responses);
      let ids =
        List.filter_map
          (fun l ->
            match Protocol.parse_response l with
            | Ok { Protocol.rid; ok = true; _ } -> Some rid
            | _ -> None)
          responses
      in
      List.iter
        (fun want ->
          if not (List.mem want ids) then Alcotest.failf "no ok response for id %d" want)
        [ 1; 2; 3; 4; 5; 99 ])

(* ---- fault-injection hardening ------------------------------------ *)

module Fault = Dpa_util.Fault
module Chaos = Dpa_service.Chaos

let tiny_dln = ".model tiny\n.inputs a b\ng = and a b\n.outputs g\n"

let estimate_line ~id ?budget () =
  Protocol.request_line
    {
      Protocol.id;
      request =
        Protocol.Estimate
          {
            source = Protocol.Inline { text = tiny_dln; format = `Dln };
            input_prob = 0.5;
            phases = None;
            budget;
          };
      (* bypass: the fault tests need every request to reach a worker's
         estimation pipeline, where the injection points live *)
      cache = `Bypass;
    }

let response_kind line =
  match Protocol.parse_response line with
  | Ok { Protocol.ok = true; _ } -> None
  | Ok { Protocol.result; _ } -> (
    match Jsonlite.member_opt "kind" result with
    | Some (Jsonlite.Str k) -> Some k
    | _ -> Some "?")
  | Error m -> Alcotest.failf "unparseable response: %s" m

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_jobqueue_try_push () =
  let q = Jobqueue.create ~capacity:1 in
  Alcotest.(check bool) "admitted" true (Jobqueue.try_push q "a" = `Ok);
  Alcotest.(check bool) "shed when full" true (Jobqueue.try_push q "b" = `Full);
  Alcotest.(check (option string)) "pop" (Some "a") (Jobqueue.pop q);
  Alcotest.(check bool) "admitted again" true (Jobqueue.try_push q "c" = `Ok);
  Jobqueue.close q;
  Alcotest.(check bool) "refused after close" true (Jobqueue.try_push q "d" = `Closed);
  Alcotest.(check (option string)) "close drains" (Some "c") (Jobqueue.pop q);
  Alcotest.(check (option string)) "then ends" None (Jobqueue.pop q)

let test_jobqueue_close_with_waiters () =
  (* a producer blocked on a full queue is woken by close and refused,
     without losing the job already queued *)
  let q = Jobqueue.create ~capacity:1 in
  ignore (Jobqueue.push q "x");
  let producer = Domain.spawn (fun () -> Jobqueue.push q "y") in
  Unix.sleepf 0.05;
  Jobqueue.close q;
  Alcotest.(check bool) "blocked push refused" false (Domain.join producer);
  Alcotest.(check (option string)) "queued job survives" (Some "x") (Jobqueue.pop q);
  Alcotest.(check (option string)) "then drained" None (Jobqueue.pop q);
  (* every consumer blocked on an empty queue is woken with None *)
  let q2 = Jobqueue.create ~capacity:2 in
  let consumers = List.init 3 (fun _ -> Domain.spawn (fun () -> Jobqueue.pop q2)) in
  Unix.sleepf 0.05;
  Jobqueue.close q2;
  List.iter
    (fun d -> Alcotest.(check (option string)) "woken with None" None (Domain.join d))
    consumers

let test_server_deadline_enforced () =
  (* a cone build stalled for 2 s under a 50 ms deadline must come back
     as a prompt structured error — the cancellation token interrupts
     the stall instead of letting the client wait out the full sleep *)
  Fault.configure ~seed:1 [ (Fault.Slow_cone, 1.0, Some 2.0) ];
  Fun.protect ~finally:Fault.clear @@ fun () ->
  Client.with_self_hosted ~workers:1 (fun ~socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let budget =
        {
          Protocol.max_bdd_nodes = None;
          deadline_s = Some 0.05;
          fallback = Dpa_power.Engine.No_fallback;
        }
      in
      let t0 = Unix.gettimeofday () in
      let r = Client.request c (estimate_line ~id:1 ~budget ()) in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match response_kind r with
      | Some ("deadline_exceeded" | "budget") -> ()
      | k ->
        Alcotest.failf "wanted deadline_exceeded, got %s (%s)"
          (Option.value ~default:"ok" k) r);
      Alcotest.(check bool)
        (Printf.sprintf "answered promptly (%.3fs)" elapsed)
        true (elapsed < 0.75))

let test_server_overload_shed_and_retry () =
  (* one slow worker, queue capacity 1: a burst of six requests must be
     partially shed with typed [overloaded] answers carrying a backoff
     hint — and the retrying client must then land every one of them *)
  Fault.configure ~seed:2 [ (Fault.Slow_cone, 1.0, Some 0.12) ];
  Fun.protect ~finally:Fault.clear @@ fun () ->
  Client.with_self_hosted ~workers:1 ~queue_capacity:1 (fun ~socket ->
      let lines = List.init 6 (fun i -> estimate_line ~id:(i + 1) ()) in
      let responses = Client.run_batch ~socket lines in
      Alcotest.(check int) "one response per request" 6 (List.length responses);
      let overloaded =
        List.filter (fun l -> response_kind l = Some "overloaded") responses
      in
      Alcotest.(check bool) "burst partially shed" true (overloaded <> []);
      List.iter
        (fun l ->
          match Protocol.parse_response l with
          | Ok { Protocol.result; _ } -> (
            match Jsonlite.member_opt "retry_after_ms" result with
            | Some (Jsonlite.Num ms) ->
              Alcotest.(check bool) "usable backoff hint" true (ms >= 25.0)
            | _ -> Alcotest.failf "no retry_after_ms in %s" l)
          | Error m -> Alcotest.fail m)
        overloaded;
      let retry =
        { Client.default_retry with max_attempts = 12; base_delay_ms = 20 }
      in
      let responses = Client.run_batch ~retry ~socket lines in
      List.iteri
        (fun i l ->
          match Protocol.parse_response l with
          | Ok { Protocol.rid; ok = true; _ } ->
            Alcotest.(check int) "request order" (i + 1) rid
          | _ -> Alcotest.failf "request %d not ok after retries: %s" (i + 1) l)
        responses)

let stats_line =
  Protocol.request_line { Protocol.id = 77; request = Protocol.Stats; cache = `Use }

let stat_int stats key =
  match Jsonlite.member_opt key stats with
  | Some (Jsonlite.Num f) -> int_of_float f
  | _ -> -1

let test_server_watchdog_replaces_panicked_worker () =
  Client.with_self_hosted ~workers:2 (fun ~socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* the in-flight request of a dying worker still gets an answer *)
      Fault.configure ~seed:3 [ (Fault.Worker_panic, 1.0, None) ];
      let r =
        Fun.protect ~finally:Fault.clear @@ fun () ->
        Client.request c (estimate_line ~id:1 ())
      in
      (match response_kind r with
      | Some "internal" -> ()
      | k ->
        Alcotest.failf "wanted internal, got %s (%s)" (Option.value ~default:"ok" k) r);
      (* ...and the watchdog joins the corpse and staffs a replacement *)
      (* the reply races ahead of the crash bookkeeping: poll until the
         watchdog has both noticed the corpse and staffed a replacement *)
      let rec stats_at_strength tries =
        let r = Client.request c stats_line in
        match Protocol.parse_response r with
        | Ok { Protocol.ok = true; result; _ } ->
          let healed =
            stat_int result "strength" >= 2
            && stat_int result "panics" >= 1
            && stat_int result "replacements" >= 1
          in
          if healed || tries <= 0 then result
          else begin
            Unix.sleepf 0.1;
            stats_at_strength (tries - 1)
          end
        | _ -> Alcotest.failf "stats request failed: %s" r
      in
      let stats = stats_at_strength 30 in
      Alcotest.(check int) "strength restored" 2 (stat_int stats "strength");
      Alcotest.(check bool) "panic counted" true (stat_int stats "panics" >= 1);
      Alcotest.(check bool)
        "replacement counted" true
        (stat_int stats "replacements" >= 1))

let test_server_max_request_bytes () =
  Client.with_self_hosted ~workers:1 ~max_request_bytes:128 (fun ~socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let r = Client.request c (String.make 300 'z') in
      (match response_kind r with
      | Some "invalid-input" -> ()
      | k ->
        Alcotest.failf "wanted invalid-input, got %s (%s)"
          (Option.value ~default:"ok" k) r);
      (match Protocol.parse_response r with
      | Ok { Protocol.result; _ } -> (
        match Jsonlite.member_opt "message" result with
        | Some (Jsonlite.Str m) ->
          Alcotest.(check bool) "names the limit" true (contains ~sub:"max_request_bytes" m)
        | _ -> Alcotest.failf "no message in %s" r)
      | Error m -> Alcotest.fail m);
      (* an oversized complete frame is rejected, not fatal to the conn *)
      let r2 = Client.request c {|{"id":2,"cmd":"ping"}|} in
      match Protocol.parse_response r2 with
      | Ok { Protocol.rid = 2; ok = true; _ } -> ()
      | _ -> Alcotest.failf "connection did not survive oversized frame: %s" r2)

let test_client_retry_survives_midbatch_drop () =
  (* a hand-rolled server whose first connection answers two of five
     requests and hangs up: the retrying client must reconnect and
     deliver all five responses, in request order *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpa_drop_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX path);
  Unix.listen lsock 8;
  let answer fd line =
    match Protocol.parse_request line with
    | Ok { Protocol.id; _ } ->
      let resp = Protocol.ok_response ~id ~cmd:"ping" (Jsonlite.Obj []) ^ "\n" in
      ignore (Unix.write_substring fd resp 0 (String.length resp))
    | Error _ -> ()
  in
  let serve ~limit =
    match Unix.accept lsock with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      let ic = Unix.in_channel_of_descr fd in
      (try
         let n = ref 0 in
         while limit = 0 || !n < limit do
           answer fd (input_line ic);
           incr n
         done
       with End_of_file | Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let srv =
    Domain.spawn (fun () ->
        serve ~limit:2;
        serve ~limit:0)
  in
  Fun.protect
    ~finally:(fun () ->
      (* unblock a still-pending accept so the join cannot hang *)
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect fd (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
         Unix.close fd
       with Unix.Unix_error _ -> ());
      Domain.join srv;
      Unix.close lsock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  let lines =
    List.init 5 (fun i ->
        Protocol.request_line { Protocol.id = i + 1; request = Protocol.Ping; cache = `Use })
  in
  let retry = { Client.default_retry with base_delay_ms = 10 } in
  let responses = Client.run_batch ~retry ~socket:path lines in
  Alcotest.(check int) "all answered" 5 (List.length responses);
  List.iteri
    (fun i line ->
      match Protocol.parse_response line with
      | Ok { Protocol.rid; ok = true; _ } ->
        Alcotest.(check int) "request order" (i + 1) rid
      | _ -> Alcotest.failf "bad response: %s" line)
    responses

let test_chaos_soak_small () =
  let r = Chaos.soak ~seed:5 ~workers:2 ~requests:24 ~garbage:5 () in
  Alcotest.(check int)
    "every request answered exactly once" 24
    (r.Chaos.ok + List.fold_left (fun a (_, n) -> a + n) 0 r.Chaos.errors);
  Alcotest.(check int) "garbage all answered" 5 r.Chaos.garbage_probes;
  Alcotest.(check int) "pool back at full strength" 2 r.Chaos.strength

let test_chaos_garbage_needs_structured_errors () =
  (* a hand-rolled server that answers every line with a non-JSON line:
     the soak's garbage check must refuse those replies, not count them *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpa_garbage_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX path);
  Unix.listen lsock 1;
  let srv =
    Domain.spawn (fun () ->
        match Unix.accept lsock with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          let ic = Unix.in_channel_of_descr fd in
          (try
             while true do
               ignore (input_line ic);
               ignore (Unix.write_substring fd "zzz\n" 0 4)
             done
           with End_of_file | Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (* unblock a still-pending accept so the join cannot hang *)
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect fd (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
         Unix.close fd
       with Unix.Unix_error _ -> ());
      Domain.join srv;
      Unix.close lsock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Chaos.probe_garbage ~socket:path [ "{garbage 1"; "zzzzzzzz" ] with
  | n -> Alcotest.failf "non-JSON replies counted as %d structured errors" n
  | exception Dpa_util.Dpa_error.Error (Dpa_util.Dpa_error.Internal _) -> ()

let suite =
  [
    Alcotest.test_case "roundtrip: ping/shutdown" `Quick test_roundtrip_simple;
    Alcotest.test_case "roundtrip: estimate" `Quick test_roundtrip_estimate;
    Alcotest.test_case "roundtrip: optimize/compare" `Quick test_roundtrip_flow_cmds;
    Alcotest.test_case "roundtrip: info" `Quick test_roundtrip_info;
    Alcotest.test_case "malformed JSON is a parse error" `Quick
      test_malformed_json_is_parse_error;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "retired wire field is ignored" `Quick
      test_retired_wire_field_ignored;
    Alcotest.test_case "error response shape" `Quick test_error_response_shape;
    Alcotest.test_case "float encode round-trip" `Quick test_encode_floats_roundtrip;
    Alcotest.test_case "jobqueue: fifo + close drains" `Quick test_jobqueue_fifo_and_close;
    Alcotest.test_case "jobqueue: blocking handoff" `Quick test_jobqueue_blocking_handoff;
    Alcotest.test_case "server: malformed line, worker survives" `Quick
      test_server_ping_and_malformed;
    Alcotest.test_case "server: missing file is io error" `Quick
      test_server_missing_file_is_io_error;
    Alcotest.test_case "server: concurrent bit-identity" `Quick
      test_server_concurrent_bit_identity;
    Alcotest.test_case "server: shutdown drains in-flight jobs" `Quick
      test_server_shutdown_drains;
    Alcotest.test_case "jobqueue: try_push sheds when full" `Quick test_jobqueue_try_push;
    Alcotest.test_case "jobqueue: close wakes blocked waiters" `Quick
      test_jobqueue_close_with_waiters;
    Alcotest.test_case "server: deadline interrupts a stalled cone" `Quick
      test_server_deadline_enforced;
    Alcotest.test_case "server: overload shed + client retry" `Quick
      test_server_overload_shed_and_retry;
    Alcotest.test_case "server: watchdog replaces panicked worker" `Quick
      test_server_watchdog_replaces_panicked_worker;
    Alcotest.test_case "server: oversized frame rejected, conn survives" `Quick
      test_server_max_request_bytes;
    Alcotest.test_case "client: retry survives mid-batch drop" `Quick
      test_client_retry_survives_midbatch_drop;
    Alcotest.test_case "chaos: small soak, nothing lost" `Quick test_chaos_soak_small;
    Alcotest.test_case "chaos: a non-JSON probe reply fails the soak" `Quick
      test_chaos_garbage_needs_structured_errors;
    Alcotest.test_case "seed changes no optimize/compare answer" `Quick
      test_seed_changes_no_answer;
  ]
