module Jsonlite = Dpa_util.Jsonlite
module Fault = Dpa_util.Fault
module Rng = Dpa_util.Rng
module Clock = Dpa_obs.Clock

type report = {
  requests : int;
  ok : int;
  errors : (string * int) list;
  garbage_probes : int;
  elapsed_s : float;
  workers : int;
  strength : int;
  panics : int;
  replacements : int;
  rescues : int;
  injections : (string * int) list;
}

let num n = Jsonlite.Num (float_of_int n)

let report_json r =
  Jsonlite.Obj
    [
      ("requests", num r.requests);
      ("ok", num r.ok);
      ("errors", Jsonlite.Obj (List.map (fun (k, n) -> (k, num n)) r.errors));
      ("garbage_probes", num r.garbage_probes);
      ("elapsed_s", Jsonlite.Num r.elapsed_s);
      ("workers", num r.workers);
      ("strength", num r.strength);
      ("panics", num r.panics);
      ("replacements", num r.replacements);
      ("rescues", num r.rescues);
      ("injections", Jsonlite.Obj (List.map (fun (k, n) -> (k, num n)) r.injections));
    ]

let default_faults =
  [
    (Fault.Slow_cone, 0.10, Some 0.15);
    (Fault.Worker_panic, 0.04, None);
    (Fault.Torn_frame, 0.10, Some 0.005);
    (Fault.Drop_conn, 0.08, None);
    (Fault.Write_stall, 0.10, Some 0.05);
  ]

(* A layered synthetic circuit as DLN text: wide enough that estimates do
   real BDD work, small enough that a soak of hundreds stays quick. *)
let soak_netlist ~inputs ~layers =
  let b = Buffer.create 512 in
  Buffer.add_string b ".model chaos_soak\n.inputs";
  for i = 0 to inputs - 1 do
    Buffer.add_string b (Printf.sprintf " x%d" i)
  done;
  Buffer.add_char b '\n';
  let prev = ref (List.init inputs (fun i -> Printf.sprintf "x%d" i)) in
  for l = 0 to layers - 1 do
    let ins = Array.of_list !prev in
    let n = Array.length ins in
    let width = max 2 (n - 1) in
    let next = ref [] in
    for g = 0 to width - 1 do
      let name = Printf.sprintf "g%d_%d" l g in
      let a = ins.(g mod n) and c = ins.((g + 1) mod n) in
      let op = match (l + g) mod 3 with 0 -> "and" | 1 -> "or" | _ -> "xor" in
      Buffer.add_string b (Printf.sprintf "%s = %s %s %s\n" name op a c);
      next := name :: !next
    done;
    prev := List.rev !next
  done;
  Buffer.add_string b ".outputs";
  List.iter (fun s -> Buffer.add_string b (" " ^ s)) !prev;
  Buffer.add_char b '\n';
  Buffer.contents b

let request_lines ~rng ~requests ~deadline_every netlist =
  List.init requests (fun i ->
      let id = i + 1 in
      let request =
        if id mod 17 = 0 then Protocol.Ping
        else begin
          let budget =
            if deadline_every > 0 && id mod deadline_every = 0 then
              Some
                {
                  Protocol.max_bdd_nodes = Some 20000;
                  deadline_s = Some 0.05;
                  fallback = Dpa_power.Engine.Simulate;
                }
            else None
          in
          Protocol.Estimate
            {
              source = Protocol.Inline { text = netlist; format = `Dln };
              input_prob = 0.25 +. (0.5 *. Rng.float rng 1.0);
              phases = None;
              budget;
            }
        end
      in
      (* cache = `Use: the soak exercises the result cache under faults,
         though random input probabilities keep most requests cold *)
      Protocol.request_line { Protocol.id; request; cache = `Use })

let garbage_lines ~rng n =
  List.init n (fun i ->
      match i mod 3 with
      | 0 -> Printf.sprintf "{garbage %d" (Rng.int rng 1000)
      | 1 -> String.make (8 + Rng.int rng 64) 'z'
      | _ -> Printf.sprintf {|{"id":%d,"cmd":"frobnicate"}|} (Rng.int rng 1000))

let error_kind_of line =
  match Protocol.parse_response line with
  | Ok { Protocol.ok = true; _ } -> None
  | Ok { Protocol.result; _ } -> (
    match Jsonlite.member_opt "kind" result with
    | Some (Jsonlite.Str k) -> Some k
    | _ -> Some "unknown")
  | Error _ -> Some "unparseable"

(* A garbage probe must come back as a response with ok = false; a reply
   that does not parse is no structured error. *)
let structured_error line =
  match Protocol.parse_response line with
  | Ok { Protocol.ok; _ } -> not ok
  | Error _ -> false

let probe_garbage ~socket probes =
  let answered =
    match probes with
    | [] -> 0
    | _ ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      List.fold_left
        (fun acc g -> if structured_error (Client.request c g) then acc + 1 else acc)
        0 probes
  in
  let sent = List.length probes in
  if answered < sent then
    Dpa_util.Dpa_error.error
      (Dpa_util.Dpa_error.Internal
         (Printf.sprintf "soak got %d structured errors for %d garbage probes" answered
            sent));
  answered

let stats_of ~socket =
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let line =
    Client.request c
      (Protocol.request_line
         { Protocol.id = 999999; request = Protocol.Stats; cache = `Use })
  in
  match Protocol.parse_response line with
  | Ok { Protocol.ok = true; result; _ } -> result
  | Ok _ | Error _ ->
    Dpa_util.Dpa_error.error (Dpa_util.Dpa_error.Internal ("stats request failed: " ^ line))

let stat_int json key =
  match Jsonlite.member_opt key json with
  | Some (Jsonlite.Num f) -> int_of_float f
  | _ -> 0

(* Wait (bounded) for the watchdog to restaff every crashed slot. *)
let await_full_strength ~socket ~workers =
  let deadline = Clock.now_ns () + 5_000_000_000 in
  let rec go () =
    let stats = stats_of ~socket in
    if stat_int stats "strength" >= workers then stats
    else if Clock.now_ns () > deadline then stats
    else begin
      Unix.sleepf 0.1;
      go ()
    end
  in
  go ()

let soak ?(seed = 1) ?(workers = 4) ?(jobs = 1) ?(queue_capacity = 8) ?(requests = 120)
    ?(deadline_every = 5) ?(garbage = 9) ?(faults = default_faults) () =
  let rng = Rng.create seed in
  let netlist = soak_netlist ~inputs:8 ~layers:4 in
  let lines = request_lines ~rng ~requests ~deadline_every netlist in
  let garbage_probes = garbage_lines ~rng garbage in
  Fault.configure ~seed:(seed + 1) faults;
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let t0 = Clock.now_ns () in
  Client.with_self_hosted ~workers ~jobs ~queue_capacity (fun ~socket ->
      (* the soak batch, retried through overloads, drops and tears:
         returns in request order with exactly one response per id, or
         raises if any request went unanswered *)
      (* attempts scale with the batch: under an aggressive drop_conn
         rate each attempt only lands a connection's worth of answers
         before the injected hangup, so a fixed attempt count would
         starve large soaks. The delay cap stays low — progress, not
         politeness, is what a soak is measuring. *)
      let retry =
        {
          Client.default_retry with
          max_attempts = 10 + (requests / 2);
          base_delay_ms = 20;
          max_delay_ms = 250;
          seed;
        }
      in
      let responses = Client.run_batch ~retry ~socket lines in
      if List.length responses <> requests then
        Dpa_util.Dpa_error.error
          (Dpa_util.Dpa_error.Internal
             (Printf.sprintf "soak answered %d of %d requests"
                (List.length responses) requests));
      (* garbage probes ride a clean connection: every one must come
         back as a structured error, not a dropped line *)
      let answered_garbage = probe_garbage ~socket garbage_probes in
      (* quiesce: the accounting phase observes the pool's recovery and
         must not itself be panicked/torn. Injection counts are final
         now — snapshot them before clear resets the registry (the
         server shares this process, so the client-side registry holds
         both sides' counts). *)
      let injections =
        Fault.injection_counts ()
        |> List.filter (fun (_, n) -> n > 0)
        |> List.map (fun (p, n) -> (Fault.point_to_string p, n))
      in
      Fault.clear ();
      let stats = await_full_strength ~socket ~workers in
      let elapsed_s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
      let ok = ref 0 in
      let errors = Hashtbl.create 8 in
      List.iter
        (fun line ->
          match error_kind_of line with
          | None -> incr ok
          | Some kind ->
            Hashtbl.replace errors kind (1 + Option.value ~default:0 (Hashtbl.find_opt errors kind)))
        responses;
      {
        requests;
        ok = !ok;
        errors =
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) errors []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
        garbage_probes = answered_garbage;
        elapsed_s;
        workers;
        strength = stat_int stats "strength";
        panics = stat_int stats "panics";
        replacements = stat_int stats "replacements";
        rescues = stat_int stats "rescues";
        injections;
      })
