type point =
  | Slow_cone
  | Worker_panic
  | Torn_frame
  | Drop_conn
  | Write_stall

exception Injected_panic

let all_points =
  [ Slow_cone; Worker_panic; Torn_frame; Drop_conn; Write_stall ]

let n_points = List.length all_points

let index = function
  | Slow_cone -> 0
  | Worker_panic -> 1
  | Torn_frame -> 2
  | Drop_conn -> 3
  | Write_stall -> 4

let point_to_string = function
  | Slow_cone -> "slow_cone"
  | Worker_panic -> "worker_panic"
  | Torn_frame -> "torn_frame"
  | Drop_conn -> "drop_conn"
  | Write_stall -> "write_stall"

let point_of_string = function
  | "slow_cone" -> Some Slow_cone
  | "worker_panic" -> Some Worker_panic
  | "torn_frame" -> Some Torn_frame
  | "drop_conn" -> Some Drop_conn
  | "write_stall" -> Some Write_stall
  | _ -> None

let default_param = function
  | Slow_cone -> 0.25
  | Write_stall -> 0.2
  | Torn_frame -> 0.02
  | Worker_panic | Drop_conn -> 0.0

(* Rates and params are only written under [mutex] by [configure]; reads
   from [fire]/[param] are unsynchronized float-array loads, which is
   benign — a racing reconfigure yields either the old or the new rate.
   The RNG stream is the part that must not tear, so decisions are drawn
   under the mutex. *)
let rates = Array.make n_points 0.0

let params = Array.make n_points 0.0

let counts = Array.make n_points 0

let armed = Atomic.make false

let mutex = Mutex.create ()

let rng = ref (Rng.create 1)

let configure ?(seed = 1) specs =
  Mutex.protect mutex @@ fun () ->
  List.iter
    (fun p ->
      let i = index p in
      rates.(i) <- 0.0;
      params.(i) <- default_param p;
      counts.(i) <- 0)
    all_points;
  List.iter
    (fun (p, rate, param) ->
      if rate < 0.0 || rate > 1.0 then invalid_arg "Fault.configure: rate must be in [0,1]";
      let i = index p in
      rates.(i) <- rate;
      (match param with Some v -> params.(i) <- v | None -> ()))
    specs;
  rng := Rng.create seed;
  Atomic.set armed (List.exists (fun (_, rate, _) -> rate > 0.0) specs)

let clear () = configure []

let active () = Atomic.get armed

let fire p =
  Atomic.get armed
  &&
  let i = index p in
  let rate = rates.(i) in
  rate > 0.0
  && Mutex.protect mutex (fun () ->
         let hit = Rng.float !rng 1.0 < rate in
         if hit then counts.(i) <- counts.(i) + 1;
         hit)

let param p = params.(index p)

let injection_counts () =
  Mutex.protect mutex (fun () -> List.map (fun p -> (p, counts.(index p))) all_points)

let sleep ?(cancel = Cancel.none) p =
  let total = param p in
  let slice = 0.01 in
  let stop = Unix.gettimeofday () +. total in
  let rec go () =
    Cancel.check cancel;
    let remaining = stop -. Unix.gettimeofday () in
    if remaining > 0.0 then begin
      (try Unix.sleepf (Float.min slice remaining) with Unix.Unix_error _ -> ());
      go ()
    end
  in
  go ()

(* --------------------------------------------------------------- *)
(* Config-string parsing                                            *)
(* --------------------------------------------------------------- *)

let parse_spec s =
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> Error "empty fault spec"
  | name :: rest -> (
    match point_of_string name with
    | None -> Error (Printf.sprintf "unknown fault point %S" name)
    | Some p -> (
      match rest with
      | [] -> Ok (p, 1.0, None)
      | [ rate ] -> (
        match float_of_string_opt rate with
        | Some r when r >= 0.0 && r <= 1.0 -> Ok (p, r, None)
        | _ -> Error (Printf.sprintf "bad rate %S for %s (want [0,1])" rate name))
      | [ rate; param ] -> (
        match (float_of_string_opt rate, float_of_string_opt param) with
        | Some r, Some v when r >= 0.0 && r <= 1.0 && v >= 0.0 -> Ok (p, r, Some v)
        | _ -> Error (Printf.sprintf "bad rate/param %S:%S for %s" rate param name))
      | _ -> Error (Printf.sprintf "too many fields in fault spec for %s" name)))

let parse_config s =
  let specs =
    List.filter (fun part -> String.trim part <> "") (String.split_on_char ',' s)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
      match parse_spec part with Ok spec -> go (spec :: acc) rest | Error e -> Error e)
  in
  go [] specs
