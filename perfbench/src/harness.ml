let tail_samples = 10

(* Integer hundredths of a percent: 0.99 *. 1000. is not 990. in floats. *)
let rank ~p n =
  let pp = int_of_float (Float.round (p *. 100.)) in
  max 1 ((pp * n + 9999) / 10000)

let beyond ~p n = n - rank ~p n

let supports ~p n = beyond ~p n >= tail_samples

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  (sorted xs).(rank ~p n - 1)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Harness.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sliced ~slices f xs =
  let n = Array.length xs in
  let k = max 1 (min slices n) in
  median (Array.init k (fun j -> f (Array.sub xs (j * n / k) (((j + 1) * n / k) - (j * n / k)))))

let bucket_percentile buckets ~overflow p =
  let total = Array.fold_left (fun s (_, c) -> s + c) overflow buckets in
  if total = 0 then 0.
  else begin
    let r = rank ~p total in
    let rec walk k below lo =
      if k = Array.length buckets then lo
      else
        let hi, c = buckets.(k) in
        if below + c >= r then lo +. ((hi -. lo) *. float_of_int (r - below) /. float_of_int c)
        else walk (k + 1) (below + c) hi
    in
    walk 0 0 0.
  end

type span = { name : string; start : int; dur : int; depth : int }

let parents spans =
  let n = Array.length spans in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let a = spans.(i) and b = spans.(j) in
      match compare a.start b.start with 0 -> compare a.depth b.depth | c -> c)
    order;
  let parent = Array.make n (-1) in
  (* spans still open at the current start time, per depth *)
  let open_at = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let s = spans.(i) in
      let stop = s.start + s.dur in
      (if s.depth > 0 then
         let live =
           List.filter
             (fun j -> spans.(j).start + spans.(j).dur >= s.start)
             (Option.value (Hashtbl.find_opt open_at (s.depth - 1)) ~default:[])
         in
         Hashtbl.replace open_at (s.depth - 1) live;
         List.iter
           (fun j ->
             let c = spans.(j) in
             if c.start + c.dur >= stop
                && (parent.(i) < 0 || c.start > spans.(parent.(i)).start)
             then parent.(i) <- j)
           live);
      Hashtbl.replace open_at s.depth
        (i :: Option.value (Hashtbl.find_opt open_at s.depth) ~default:[]))
    order;
  parent

let self_times spans =
  let parent = parents spans in
  let children = Array.make (Array.length spans) [] in
  Array.iteri (fun i p -> if p >= 0 then children.(p) <- i :: children.(p)) parent;
  Array.mapi
    (fun i s ->
      let stop = s.start + s.dur in
      let kids =
        List.sort compare
          (List.map
             (fun j -> (max s.start spans.(j).start, min stop (spans.(j).start + spans.(j).dur)))
             children.(i))
      in
      (* union of the children's intervals, clipped to the parent *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, s.start) kids
      in
      s.dur - covered)
    spans

type request = { due : float; sent : float; answered : float option }

let latencies_ms reqs =
  Array.map
    (fun r ->
      match r.answered with
      | Some t -> (t -. r.due) *. 1000.
      | None -> Float.infinity)
    reqs

let lags_ms reqs = Array.map (fun r -> (r.sent -. r.due) *. 1000.) reqs

let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  String.length s >= 1
  && String.length s <= 64
  && ok s.[0]
  && String.for_all (fun c -> ok c || c = '_' || c = '.' || c = '-') s

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  let module J = Dpa_util.Jsonlite in
  let seen = Hashtbl.create 64 in
  let entry (m : metric) =
    if not (valid_name m.name) then invalid_arg ("metric name " ^ m.name);
    if Hashtbl.mem seen m.name then invalid_arg ("repeated metric " ^ m.name);
    if not (Float.is_finite m.value) then invalid_arg ("non-finite metric " ^ m.name);
    Hashtbl.add seen m.name ();
    (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ])
  in
  J.encode
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ("metrics", J.Obj (List.map entry metrics));
       ])
