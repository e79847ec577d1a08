type counter = { mutable c : int; c_help : string }

type gauge = { mutable g : float; g_help : string }

type histogram = {
  bounds : float array;
  counts : int array; (* one slot per bound, plus overflow at the end *)
  mutable sum : float;
  mutable total : int;
  h_help : string;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Domain-safety: one mutex guards registry mutation, cell updates and
   snapshot export. Updates are a handful of loads and stores under an
   uncontended lock — still cheap enough to leave on unconditionally. *)
let guard = Mutex.create ()

let default_buckets =
  [|
    0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0;
    250.0; 500.0; 1000.0; 2500.0; 5000.0; 10000.0;
  |]

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name make select =
  Mutex.protect guard @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m -> (
    match select m with
    | Some cell -> cell
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as a %s" name (kind_name m)))
  | None ->
    let m = make () in
    Hashtbl.replace registry name m;
    (match select m with Some cell -> cell | None -> assert false)

let counter ?(help = "") name =
  register name
    (fun () -> C { c = 0; c_help = help })
    (function C c -> Some c | G _ | H _ -> None)

let gauge ?(help = "") name =
  register name
    (fun () -> G { g = 0.0; g_help = help })
    (function G g -> Some g | C _ | H _ -> None)

let histogram ?(help = "") ?(buckets = default_buckets) name =
  let check () =
    if Array.length buckets = 0 then invalid_arg "Metrics.histogram: empty buckets";
    Array.iteri
      (fun i b ->
        if not (Float.is_finite b) then invalid_arg "Metrics.histogram: non-finite bound";
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Metrics.histogram: bounds must be strictly increasing")
      buckets
  in
  register name
    (fun () ->
      check ();
      H
        {
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          sum = 0.0;
          total = 0;
          h_help = help;
        })
    (function H h -> Some h | C _ | G _ -> None)

let incr c = Mutex.protect guard (fun () -> c.c <- c.c + 1)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative delta";
  Mutex.protect guard (fun () -> c.c <- c.c + n)

let counter_value c = Mutex.protect guard (fun () -> c.c)

let set g v = Mutex.protect guard (fun () -> g.g <- v)

let set_max g v = Mutex.protect guard (fun () -> if v > g.g then g.g <- v)

let gauge_value g = Mutex.protect guard (fun () -> g.g)

(* First bucket whose bound >= v (le semantics: boundary values belong to
   the bucket they bound); past the last bound, the overflow slot. *)
let observe h v =
  Mutex.protect guard @@ fun () ->
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    Stdlib.incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.sum <- h.sum +. v;
  h.total <- h.total + 1

let histogram_count h = Mutex.protect guard (fun () -> h.total)

let histogram_sum h = Mutex.protect guard (fun () -> h.sum)

let bucket_counts h =
  Mutex.protect guard @@ fun () ->
  (Array.mapi (fun i b -> (b, h.counts.(i))) h.bounds, h.counts.(Array.length h.bounds))

(* ------------------------------------------------------------------ *)
(* Registry-wide operations                                             *)
(* ------------------------------------------------------------------ *)

let reset () =
  Mutex.protect guard @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.c <- 0
      | G g -> g.g <- 0.0
      | H h ->
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.sum <- 0.0;
        h.total <- 0)
    registry

(* must be called with [guard] held *)
let sorted_entries_unlocked () =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let names () =
  Mutex.protect guard (fun () -> List.map fst (sorted_entries_unlocked ()))

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_json f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let to_json () =
  Mutex.protect guard @@ fun () ->
  let entries = sorted_entries_unlocked () in
  let b = Buffer.create 2048 in
  let section title select render =
    Buffer.add_string b (Printf.sprintf "  \"%s\": {" title);
    let first = ref true in
    List.iter
      (fun (name, m) ->
        match select m with
        | None -> ()
        | Some cell ->
          if not !first then Buffer.add_char b ',';
          first := false;
          Buffer.add_string b (Printf.sprintf "\n    \"%s\": %s" (escape name) (render cell)))
      entries;
    Buffer.add_string b "\n  }"
  in
  Buffer.add_string b "{\n";
  section "counters"
    (function C c -> Some c | _ -> None)
    (fun c -> string_of_int c.c);
  Buffer.add_string b ",\n";
  section "gauges"
    (function G g -> Some g | _ -> None)
    (fun g -> float_json g.g);
  Buffer.add_string b ",\n";
  section "histograms"
    (function H h -> Some h | _ -> None)
    (fun h ->
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i bound ->
               Printf.sprintf "{\"le\": %s, \"count\": %d}" (float_json bound) h.counts.(i))
             h.bounds)
      in
      Printf.sprintf "{\"buckets\": [%s], \"overflow\": %d, \"sum\": %s, \"count\": %d}"
        (String.concat ", " buckets)
        h.counts.(Array.length h.bounds)
        (float_json h.sum) h.total);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let save_json path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json ()))
