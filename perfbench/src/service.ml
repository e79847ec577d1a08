(* The service workload: an open loop of seeded Poisson arrivals against
   an in-process server, timed from each request's scheduled send. *)

open Common
module Protocol = Dpa_service.Protocol
module Rng = Dpa_util.Rng

type params = {
  workers : int;
  server_jobs : int;
  queue_capacity : int;
  connections : int;
  rate_per_s : float;
  estimate_share : float;
  repeat_share : float;
  min_requests : int;
  check_sample : int;
  drain_timeout_s : float;
  warmup_s : float;
  warmup_requests : int;
  inputs : int * int;
  outputs : int * int;
  gates_per_output : int * int;
}

let params_of cfg =
  let num k = J.to_float (J.member k cfg) and int k = J.to_int (J.member k cfg) in
  let range k =
    match J.to_list (J.member k (J.member "netlist" cfg)) with
    | [ lo; hi ] -> (J.to_int lo, J.to_int hi)
    | _ -> failwith ("netlist." ^ k ^ " must be [lo, hi]")
  in
  {
    workers = int "workers";
    server_jobs = int "server_jobs";
    queue_capacity = int "queue_capacity";
    connections = int "connections";
    rate_per_s = num "rate_per_s";
    estimate_share = num "estimate_share";
    repeat_share = num "repeat_share";
    min_requests = int "min_requests";
    check_sample = int "check_sample";
    drain_timeout_s = num "drain_timeout_s";
    warmup_s = num "warmup_s";
    warmup_requests = int "warmup_requests";
    inputs = range "inputs";
    outputs = range "outputs";
    gates_per_output = range "gates_per_output";
  }

(* ---- request generation ------------------------------------------------ *)

(* [key] names the distinct request; a repeat shares its predecessor's key
   and differs from it only in [id]. *)
type req = { key : int; request : Protocol.request; line : string }

let between rng (lo, hi) = lo + Rng.int rng (hi - lo + 1)

let fresh_request p rng ~name =
  let n_inputs = between rng p.inputs in
  let n_outputs = between rng p.outputs in
  let net =
    Dpa_workload.Generator.combinational
      {
        Dpa_workload.Generator.default with
        Dpa_workload.Generator.name;
        seed = Rng.int rng 1_000_000_000;
        n_inputs;
        n_outputs;
        support = min n_inputs 8;
        gates_per_output = between rng p.gates_per_output;
      }
  in
  let source = Protocol.Inline { text = Dpa_logic.Blif.to_string net; format = `Blif } in
  if Rng.float rng 1.0 < p.estimate_share then
    let phases =
      String.init (Dpa_logic.Netlist.num_outputs net) (fun _ -> if Rng.bool rng then '+' else '-')
    in
    Protocol.Estimate { source; input_prob = 0.5; phases = Some phases; budget = None }
  else Protocol.Compare { source; input_prob = 0.5; seed = 1; budget = None }

let line_of ?(cache = `Use) id request = Protocol.request_line { Protocol.id; request; cache }

(* The request stream, a function of the seed, and its schedule in
   seconds after the window opens. *)
let generate p ~seed ~n =
  let rng = Rng.create seed in
  let distinct = Array.make n Protocol.Ping and n_distinct = ref 0 in
  let reqs =
    Array.init n (fun i ->
        let key =
          if !n_distinct > 0 && Rng.float rng 1.0 < p.repeat_share then Rng.int rng !n_distinct
          else begin
            distinct.(!n_distinct) <- fresh_request p rng ~name:(Printf.sprintf "req%d" !n_distinct);
            incr n_distinct;
            !n_distinct - 1
          end
        in
        let request = distinct.(key) in
        { key; request; line = line_of (i + 1) request })
  in
  (* Poisson arrivals conditioned on exactly [n] of them in [n / rate]
     seconds are sorted uniform times; the schedule has its own stream
     (fixed across seeds), so the seed varies what is asked, not when. *)
  let sched = Rng.create 0x5c4ed in
  let span = float_of_int n /. p.rate_per_s in
  let due = Array.init n (fun _ -> Rng.float sched span) in
  Array.sort Float.compare due;
  (reqs, due)

(* ---- the wire ------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Response lines start with the echoed id: {"id":N,... *)
let id_of line = Scanf.sscanf line "{\"id\":%d," Fun.id

let strip_id line = String.sub line (String.index line ',') (String.length line - String.index line ',')

type conn = { fd : Unix.file_descr; mutable pending : string; mutable open_ : bool }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; pending = ""; open_ = true }

let chunk = Bytes.create 65536

(* Reads what is available; calls [on_line] with each complete line. *)
let drain_conn c on_line =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.open_ <- false
  | k ->
    let parts = String.split_on_char '\n' (c.pending ^ Bytes.sub_string chunk 0 k) in
    let rec feed = function
      | [ rest ] -> c.pending <- rest
      | line :: tl ->
        on_line line;
        feed tl
      | [] -> c.pending <- ""
    in
    feed parts
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Blocks until every line in [lines] is answered (set-up warm-up). *)
let round_trip c lines =
  List.iter (fun l -> write_all c.fd (l ^ "\n")) lines;
  let left = ref (List.length lines) in
  while !left > 0 && c.open_ do
    ignore (select_read [ c.fd ] 1.0);
    drain_conn c (fun _ -> decr left)
  done;
  if !left > 0 then failwith "server closed the connection during warm-up"

(* ---- the open loop --------------------------------------------------------- *)

type window = {
  t0 : float;
  t_measured : float;  (** when the first timed request was due *)
  t_end : float;
  sent : float array;
  answered : float array;  (** nan = no answer *)
  responses : string option array;
}

(* Requests before [n_warm] fill the result cache and settle the server;
   they are answered and verified but not timed, and the registry is
   reset when the first timed one is due. *)
let open_loop p ~n_warm conns reqs due =
  let n = Array.length reqs in
  let sent = Array.make n Float.nan and answered = Array.make n Float.nan in
  let responses = Array.make n None in
  let on_line line =
    match id_of line with
    | id when id >= 1 && id <= n ->
      answered.(id - 1) <- now ();
      responses.(id - 1) <- Some line
    | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) -> ()
  in
  let conns = Array.of_list conns in
  let t0 = now () in
  let next = ref 0 and outstanding = ref 0 and deadline = ref Float.infinity in
  while (!next < n || !outstanding > 0) && now () < !deadline do
    let timeout =
      if !next < n then Float.max 0. (t0 +. due.(!next) -. now ())
      else Float.max 0. (!deadline -. now ())
    in
    let live = List.filter_map (fun c -> if c.open_ then Some c.fd else None) (Array.to_list conns) in
    let ready = select_read live timeout in
    Array.iter
      (fun c ->
        if List.mem c.fd ready then
          drain_conn c (fun line ->
              on_line line;
              decr outstanding))
      conns;
    let t = now () in
    while !next < n && t0 +. due.(!next) <= t do
      let i = !next in
      if i = n_warm then Metrics.reset ();
      write_all conns.(i mod Array.length conns).fd (reqs.(i).line ^ "\n");
      sent.(i) <- now ();
      incr next;
      incr outstanding;
      if !next = n then deadline := now () +. p.drain_timeout_s
    done
  done;
  { t0; t_measured = t0 +. due.(n_warm); t_end = now (); sent; answered; responses }

(* ---- correctness -------------------------------------------------------------- *)

(* A request is good when it was answered ok, its bytes (apart from the id)
   equal the first ok answer to the same key, and — for a seeded sample of
   keys — the answer equals an in-process execution. *)
let verify p ~seed reqs w =
  let n = Array.length reqs in
  let parsed =
    Array.map
      (function
        | None -> None
        | Some line -> (
          match Protocol.parse_response line with
          | Ok r when r.Protocol.ok -> Some (line, r)
          | Ok _ | Error _ -> None))
      w.responses
  in
  let reference = Hashtbl.create 1024 in
  let wrong = Array.make n false in
  Array.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some (line, _) -> (
        let key = reqs.(i).key in
        match Hashtbl.find_opt reference key with
        | None -> Hashtbl.add reference key (i, strip_id line)
        | Some (_, first) -> if strip_id line <> first then wrong.(i) <- true))
    parsed;
  let keys = Array.of_list (List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) reference [])) in
  let rng = Rng.create (seed lxor 0x5eed) in
  Rng.shuffle rng keys;
  Array.iteri
    (fun j key ->
      if j < p.check_sample then begin
        let i, _ = Hashtbl.find reference key in
        let _, r = Option.get parsed.(i) in
        let expected =
          match Dpa_service.Handler.execute reqs.(i).request with
          | result -> Some (J.encode result)
          | exception _ -> None
        in
        if Some (J.encode r.Protocol.result) <> expected then
          Array.iteri (fun i' q -> if q.key = key then wrong.(i') <- true) reqs
      end)
    keys;
  let good = Array.mapi (fun i r -> r <> None && not wrong.(i)) parsed in
  (good, Array.exists Fun.id wrong, parsed, reference)

(* ---- quality over the distinct answers ------------------------------------------ *)

let cones_of request result =
  match request with
  | Protocol.Estimate _ ->
    let n = List.length (J.to_list (J.member "outputs" result)) in
    if J.to_bool (J.member "exact" result) then (n, n)
    else
      Scanf.sscanf (J.to_string (J.member "degradation" result))
        "%d exact / %d reordered / %d simulated of %d cones" (fun ex re _ all -> (ex + re, all))
  | _ ->
    let n = J.to_int (J.member "n_po" result) in
    let label = J.to_string (J.member "degradation" (J.member "mp" result)) in
    if label = "exact" then (n, n)
    else Scanf.sscanf label "%dex+%dre+%dsim" (fun ex re sim -> (ex + re, ex + re + sim))

let quality reqs parsed reference =
  let ratios = ref [] and good = ref 0 and all = ref 0 in
  Hashtbl.iter
    (fun _ (i, _) ->
      let _, r = Option.get parsed.(i) in
      let result = r.Protocol.result in
      let g, a = cones_of reqs.(i).request result in
      good := !good + g;
      all := !all + a;
      if (match reqs.(i).request with Protocol.Compare _ -> true | _ -> false) then begin
        let f side k = J.to_float (J.member k (J.member side result)) in
        ratios := (f "mp" "power" /. f "ma" "power", f "mp" "size" /. f "ma" "size") :: !ratios
      end)
    reference;
  let mean f =
    match !ratios with
    | [] -> 1.
    | l -> List.fold_left (fun s x -> s +. f x) 0. l /. float_of_int (List.length l)
  in
  (mean fst, mean snd, ratio (float_of_int !good) (float_of_int !all))

(* ---- server-side layers ------------------------------------------------------------ *)

let hist_percentile name p =
  let buckets, overflow = Metrics.bucket_counts (Metrics.histogram name) in
  Harness.bucket_percentile buckets ~overflow p

(* Span time from the [Dpa_obs.Profile] histograms, in seconds. *)
let span_s name = Metrics.histogram_sum (Metrics.histogram ("span." ^ name ^ ".ms")) /. 1000.

let server_layers p w lags =
  let a = acc () in
  absorb_registry a;
  let set k v = Hashtbl.replace a k v in
  let window_s = w.t_end -. w.t_measured in
  set "service.queue_wait_p50_ms" (hist_percentile "service.queue.wait_ms" 50.);
  set "service.queue_wait_p99_ms" (hist_percentile "service.queue.wait_ms" 99.);
  set "service.request_p50_ms" (hist_percentile "service.request.ms" 50.);
  set "service.cache.hit_ratio"
    (ratio (counter "service.cache.hits") (counter "service.cache.hits" +. counter "service.cache.misses"));
  set "service.worker.busy_frac"
    (counter "service.worker.busy_us" /. 1e6 /. (float_of_int p.workers *. window_s));
  set "service.overloaded" (counter "service.overloaded");
  set "service.errors" (counter "service.errors");
  set "loadgen.lag_p99_ms" (Harness.percentile lags 99.);
  set "synth.opt_s" (span_s "flow.optimize");
  set "phase.search_s" (span_s "phase.optimize");
  set "phase.measure.eval_s" (span_s "phase.measure.eval" +. span_s "phase.measure.prefetch");
  set "phase.base_probs_s" (span_s "engine.node_probabilities");
  set "power.estimate_s" (span_s "engine.estimate");
  set "sim.run_s" (span_s "sim.run");
  a

(* ---- the workload ---------------------------------------------------------------------- *)

let warmup_lines p ~seed =
  let rng = Rng.create (seed lxor 0x3a7e) in
  List.init p.warmup_requests (fun k ->
      line_of ~cache:`Bypass (k + 1)
        (fresh_request p rng ~name:(Printf.sprintf "warm%d" k)))

let requests_of w due =
  Array.mapi
    (fun i d ->
      {
        Harness.due = w.t0 +. d;
        sent = (if Float.is_nan w.sent.(i) then w.t_end else w.sent.(i));
        answered = (if Float.is_nan w.answered.(i) then None else Some w.answered.(i));
      })
    due

let scratch_dir = ".perfbench-tmp"

(* The timed window is cut into up to this many parts of at least 1000
   requests each; the latency percentiles are medians over the parts. *)
let max_slices = 6

let run ~seed ~seconds ~trace cfg =
  let p = params_of cfg in
  let n_warm = int_of_float (Float.ceil (p.rate_per_s *. p.warmup_s)) in
  let n_timed = max p.min_requests (int_of_float (Float.ceil (p.rate_per_s *. seconds))) in
  let n = n_warm + n_timed in
  let timed_part a = Array.sub a n_warm n_timed in
  (* the self-hosted server's socket lives inside the checkout *)
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  Filename.set_temp_dir_name scratch_dir;
  if trace then Dpa_obs.Profile.enable ();
  (* Set-up (generate, start the server, connect, warm up) runs
     [setup_rounds] times; the last round's server carries the window. *)
  let rec rounds k times =
    let t0 = now () in
    let reqs, due = generate p ~seed ~n in
    let warm = warmup_lines p ~seed in
    let outcome =
      Dpa_service.Client.with_self_hosted ~workers:p.workers ~jobs:p.server_jobs
        ~queue_capacity:p.queue_capacity
        (fun ~socket ->
          let conns = List.init p.connections (fun _ -> connect socket) in
          List.iter (fun c -> round_trip c warm) conns;
          let times = (now () -. t0) :: times in
          let r =
            if k > 1 then Error times
            else begin
              let w = open_loop p ~n_warm conns reqs due in
              let layers =
                server_layers p w (Harness.lags_ms (timed_part (requests_of w due)))
              in
              Ok (Harness.median (Array.of_list times), reqs, due, w, layers)
            end
          in
          List.iter (fun c -> Unix.close c.fd) conns;
          r)
    in
    match outcome with
    | Ok r -> r
    | Error times ->
      Unix.sleepf setup_pause_s;
      rounds (k - 1) times
  in
  let setup_s, reqs, due, w, layers = rounds (setup_rounds cfg) [] in
  let good, any_wrong, parsed, reference = verify p ~seed reqs w in
  let timed =
    timed_part
      (Array.mapi
         (fun i r -> if good.(i) then r else { r with Harness.answered = None })
         (requests_of w due))
  in
  let count a = Array.fold_left (fun k g -> if g then k + 1 else k) 0 a in
  let n_ok = count good and n_timed_ok = count (timed_part good) in
  let last =
    Array.fold_left
      (fun m t -> if Float.is_nan t then m else Float.max m t)
      w.t_measured (timed_part w.answered)
  in
  let sweep_s = last -. w.t_measured in
  let failed = n - n_ok in
  (try Sys.rmdir scratch_dir with Sys_error _ -> ());
  if trace then print_result ~correct:(not any_wrong) ~attempted:n ~failed (per_layer layers)
  else begin
    let power_ratio, area_ratio, exact_share = quality reqs parsed reference in
    let e =
      {
        setup_s;
        sweep_s;
        latencies_ms = Harness.latencies_ms timed;
        slices = max 1 (min max_slices (n_timed / 1000));
        req_per_s = float_of_int n_timed_ok /. sweep_s;
        mp_power_ratio = power_ratio;
        mp_area_ratio = area_ratio;
        exact_cone_share = exact_share;
        ok_ratio = float_of_int n_ok /. float_of_int n;
        cap_ms = (w.t_end -. w.t_measured) *. 1000.;
      }
    in
    print_result ~correct:(not any_wrong) ~attempted:n ~failed (end_to_end e)
  end
