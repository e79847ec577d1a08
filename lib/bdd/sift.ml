module Cancel = Dpa_util.Cancel
module Dpa_error = Dpa_util.Dpa_error

type result = {
  swaps : int;
  vars_sifted : int;
  nodes_before : int;
  nodes_after : int;
  reclaimed : int;
  allocated : int;
}

(* registry cells are resolved at module init — resolving lazily from
   inside a sift call would race when several domains sift their shard
   managers concurrently *)
let mc name help = Dpa_obs.Metrics.counter ~help name

let c_swaps = mc "bdd.sift.swaps" "adjacent-level swaps performed by the sifting reorderer"

let c_before = mc "bdd.sift.nodes_before" "live nodes entering sift sessions (summed)"

let c_after = mc "bdd.sift.nodes_after" "live nodes leaving sift sessions (summed)"

(* Minimal int vector for the per-level id lists. Deletion is lazy: a
   node that dies at an untouched level stays in its level's vector and
   is filtered out (by its retired [raw_level]) the next time that level
   is swapped — ids are never reused, so a stale entry can only denote
   the dead node itself. *)
type vec = { mutable a : int array; mutable len : int }

let vec_make () = { a = Array.make 16 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.a then begin
    let a' = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 a' 0 v.len;
    v.a <- a'
  end;
  Array.unsafe_set v.a v.len x;
  v.len <- v.len + 1

type session = {
  m : Robdd.manager;
  nv : int;
  order : int array; (* the caller's array, permuted in place per swap *)
  levels : vec array;
  lsize : int array; (* exact live count per level *)
  mutable refc : int array; (* in-edges from live nodes + one pin per root *)
  cancel : Cancel.t;
  deadline : float;
  started : float;
  max_swaps : int;
  max_new_nodes : int;
  base_n : int; (* total_nodes at session start, for the allocation cap *)
  mutable swaps : int;
  mutable exhausted : bool; (* a budget raised: only the final walk-back remains *)
}

(* Checked only at swap boundaries: between two checks the store may be
   mid-rewire, but at a boundary every invariant (unique-table
   consistency, exact refcounts, reduced nodes) holds — so both the
   budget raises below and [Cancelled] leave the manager fully usable. *)
let checkpoint s =
  Cancel.check s.cancel;
  if not s.exhausted then begin
    if s.deadline < infinity then begin
      let now = Unix.gettimeofday () in
      if now > s.deadline then
        Dpa_error.budget_exceeded ~context:"sift" ~resource:Dpa_error.Wall_clock
          ~limit:(s.deadline -. s.started) ~spent:(now -. s.started) ()
    end;
    if s.swaps >= s.max_swaps then
      Dpa_error.budget_exceeded ~context:"sift.max_swaps" ~resource:Dpa_error.Bdd_nodes
        ~limit:(float_of_int s.max_swaps) ~spent:(float_of_int s.swaps) ();
    let allocated = Robdd.total_nodes s.m - s.base_n in
    if allocated >= s.max_new_nodes then
      Dpa_error.budget_exceeded ~context:"sift.max_new_nodes" ~resource:Dpa_error.Bdd_nodes
        ~limit:(float_of_int s.max_new_nodes) ~spent:(float_of_int allocated) ()
  end

let incref s n = if n > 1 then s.refc.(n) <- s.refc.(n) + 1

(* Kills [n] when its last reference goes, cascading into its children.
   A node dying at [ylevel] (the lower level of the in-flight swap) must
   NOT remove its unique entry: all entries of the two touched levels
   were removed when the swap opened, and its old key may since have
   been re-bound to a freshly created replacement node — removing by key
   would clobber the newcomer. Its level count is not adjusted either
   (both touched levels are recounted when the swap closes). Deaths at
   deeper levels own their table entry and their level count. *)
let rec decref s ylevel n =
  if n > 1 then begin
    let r = s.refc.(n) - 1 in
    s.refc.(n) <- r;
    if r = 0 then begin
      let lv = Robdd.raw_level s.m n in
      let l0 = Robdd.low s.m n and h0 = Robdd.high s.m n in
      if lv <> ylevel then begin
        Robdd.unique_remove s.m lv l0 h0;
        s.lsize.(lv) <- s.lsize.(lv) - 1
      end;
      Robdd.retire_node s.m n;
      decref s ylevel l0;
      decref s ylevel h0
    end
  end

let ensure_refc s id =
  if id >= Array.length s.refc then begin
    let a' = Array.make (max (2 * Array.length s.refc) (id + 1)) 0 in
    Array.blit s.refc 0 a' 0 (Array.length s.refc);
    s.refc <- a'
  end

(* Find-or-create a node at level [lv] during a swap. Unlike [Robdd.mk]
   this never budget-checks (the swap must finish rewiring; the session
   enforces [max_new_nodes] at the next boundary) and pushes creations
   onto the new lower-level vector. The find can legitimately hit a
   case-A node already re-homed at [lv]: after the swap [lv] tests the
   same variable the case-A node tests, so equal keys denote equal
   functions and sharing them is exactly what canonicity requires. *)
let mk_at s new_y lv a b =
  if a = b then a
  else begin
    let found = Robdd.unique_find s.m lv a b in
    if found >= 0 then found
    else begin
      let id = Robdd.alloc_unchecked s.m lv a b in
      ensure_refc s id;
      incref s a;
      incref s b;
      Robdd.unique_insert s.m lv a b id;
      vec_push new_y id;
      id
    end
  end

(* Rudell adjacent swap of levels (l, l+1): only nodes at these two
   levels are rewired; every live node id keeps denoting the same
   Boolean function (which is why ite-cache entries and probability
   memos survive reordering bit-for-bit). *)
let swap_levels s l =
  let m = s.m in
  let y = l + 1 in
  let xs = s.levels.(l) and ys = s.levels.(y) in
  (* Both levels' unique entries go first: keys are about to be re-bound
     wholesale, and a stale entry found mid-rewire would alias an old
     function to a new key. Lazy deletion means the vectors may hold
     dead ids — filter by the stored level. *)
  for i = 0 to xs.len - 1 do
    let id = Array.unsafe_get xs.a i in
    if Robdd.raw_level m id = l then Robdd.unique_remove m l (Robdd.low m id) (Robdd.high m id)
  done;
  for i = 0 to ys.len - 1 do
    let id = Array.unsafe_get ys.a i in
    if Robdd.raw_level m id = y then Robdd.unique_remove m y (Robdd.low m id) (Robdd.high m id)
  done;
  let new_x = vec_make () and new_y = vec_make () in
  let case_b = vec_make () in
  (* Case A — x-nodes independent of y keep their children and simply
     drop to level l+1. Re-homed before any case-B rewiring so the
     [mk_at] probe below can share them. *)
  for i = 0 to xs.len - 1 do
    let id = Array.unsafe_get xs.a i in
    if Robdd.raw_level m id = l then begin
      let f0 = Robdd.low m id and f1 = Robdd.high m id in
      if Robdd.raw_level m f0 <> y && Robdd.raw_level m f1 <> y then begin
        Robdd.set_node m id y f0 f1;
        Robdd.unique_insert m y f0 f1 id;
        vec_push new_y id
      end
      else vec_push case_b id
    end
  done;
  (* Case B — x-nodes with a y-child get rewired in place: the id keeps
     its function but now tests y first. At least one of the two new
     children is a genuine level-(l+1) node (both collapsing would force
     f0 = f1, contradicting reducedness), so rewired keys can never
     collide with surviving-y keys, whose children all sit below l+1. *)
  for i = 0 to case_b.len - 1 do
    let id = Array.unsafe_get case_b.a i in
    let f0 = Robdd.low m id and f1 = Robdd.high m id in
    let f00, f01 =
      if Robdd.raw_level m f0 = y then (Robdd.low m f0, Robdd.high m f0) else (f0, f0)
    in
    let f10, f11 =
      if Robdd.raw_level m f1 = y then (Robdd.low m f1, Robdd.high m f1) else (f1, f1)
    in
    let a0 = mk_at s new_y y f00 f10 in
    let a1 = mk_at s new_y y f01 f11 in
    incref s a0;
    incref s a1;
    Robdd.set_node m id l a0 a1;
    Robdd.unique_insert m l a0 a1 id;
    vec_push new_x id;
    (* the old edges die last: every cofactor read above happened while
       f0/f1 were still pinned, and exact refcounts keep any node another
       pending case-B x-node still needs alive through the cascade *)
    decref s y f0;
    decref s y f1
  done;
  (* Surviving y-nodes rise to level l unchanged (their children are all
     below both touched levels). The dead ones — killed by the cascade —
     identify themselves by their retired level. *)
  for i = 0 to ys.len - 1 do
    let id = Array.unsafe_get ys.a i in
    if Robdd.raw_level m id = y then begin
      Robdd.set_node m id l (Robdd.low m id) (Robdd.high m id);
      Robdd.unique_insert m l (Robdd.low m id) (Robdd.high m id) id;
      vec_push new_x id
    end
  done;
  s.levels.(l) <- new_x;
  s.levels.(y) <- new_y;
  s.lsize.(l) <- new_x.len;
  s.lsize.(y) <- new_y.len;
  let vl = s.order.(l) in
  s.order.(l) <- s.order.(y);
  s.order.(y) <- vl;
  s.swaps <- s.swaps + 1;
  checkpoint s

exception Capped

(* Move the variable currently at [cur0] to the nearer boundary, then
   the far one, then back to the smallest position seen. Store
   canonicity (plus the garbage sweep at session open) makes the live
   count a function of the order alone, so revisiting the best position
   reproduces the best size exactly. A budget raised mid-walk still
   walks back (with the budget checks off) before it propagates, so a
   session never leaves the store larger than it found it — which is
   what keeps a post-sift retry under the caller's node cap. *)
let sift_var s cur0 ~max_growth =
  let cur = ref cur0 in
  let start_live = Robdd.live_nodes s.m in
  let cap = int_of_float (ceil (max_growth *. float_of_int start_live)) in
  let best_size = ref start_live and best_pos = ref cur0 in
  let record () =
    let sz = Robdd.live_nodes s.m in
    if sz < !best_size then begin
      best_size := sz;
      best_pos := !cur
    end;
    if sz > cap then raise Capped
  in
  (* [cur] moves first: a budget raise lands at the swap's closing
     checkpoint, when the levels are already exchanged *)
  let down () =
    incr cur;
    swap_levels s (!cur - 1)
  in
  let up () =
    decr cur;
    swap_levels s !cur
  in
  let walk_down () =
    try
      while !cur < s.nv - 1 do
        down ();
        record ()
      done
    with Capped -> ()
  in
  let walk_up () =
    try
      while !cur > 0 do
        up ();
        record ()
      done
    with Capped -> ()
  in
  let walk_back () =
    while !cur < !best_pos do
      down ()
    done;
    while !cur > !best_pos do
      up ()
    done
  in
  (try
     if s.nv - 1 - !cur <= !cur then begin
       walk_down ();
       walk_up ()
     end
     else begin
       walk_up ();
       walk_down ()
     end;
     walk_back ()
   with Dpa_error.Budget_exceeded _ as e ->
     s.exhausted <- true;
     walk_back ();
     raise e);
  assert (Robdd.live_nodes s.m = !best_size)

let sift ?(passes = 1) ?(max_growth = 1.2) ?max_swaps ?max_new_nodes ?deadline ?cancel ~roots
    ~order m =
  Robdd.assert_owner m "sift";
  let nv = Robdd.nvars m in
  if Array.length order <> nv then
    invalid_arg "Sift.sift: order length does not match the manager's nvars";
  let seen = Hashtbl.create (2 * nv) in
  Array.iter
    (fun v ->
      if Hashtbl.mem seen v then invalid_arg "Sift.sift: order has duplicate entries";
      Hashtbl.add seen v ())
    order;
  let n0 = Robdd.total_nodes m in
  let reclaimed0 = Robdd.reclaimed_nodes m in
  (* stale memo entries could resurrect ids this session retires; fresh
     caches built against the final order repopulate on demand *)
  Robdd.clear_ite_cache m;
  (* reachability sweep: anything not reachable from the declared roots —
     debris from budget-aborted cone builds, or nodes orphaned by an
     earlier session — is retired now, both to keep the live count a pure
     function of the order (the optimization's objective) and to hand the
     freed budget back to the caller's retry *)
  let reach = Bytes.make (max n0 2) '\000' in
  let rec mark id =
    if id > 1 && Bytes.unsafe_get reach id = '\000' then begin
      Bytes.unsafe_set reach id '\001';
      mark (Robdd.low m id);
      mark (Robdd.high m id)
    end
  in
  List.iter mark roots;
  for id = 2 to n0 - 1 do
    if Bytes.unsafe_get reach id = '\000' then begin
      let lv = Robdd.raw_level m id in
      if lv <> Robdd.retired_level then begin
        Robdd.unique_remove m lv (Robdd.low m id) (Robdd.high m id);
        Robdd.retire_node m id
      end
    end
  done;
  let refc = Array.make (max n0 2) 0 in
  let levels = Array.init nv (fun _ -> vec_make ()) in
  let lsize = Array.make (max nv 1) 0 in
  for id = 2 to n0 - 1 do
    if Bytes.unsafe_get reach id = '\001' then begin
      let l0 = Robdd.low m id and h0 = Robdd.high m id in
      if l0 > 1 then refc.(l0) <- refc.(l0) + 1;
      if h0 > 1 then refc.(h0) <- refc.(h0) + 1;
      let lv = Robdd.raw_level m id in
      vec_push levels.(lv) id;
      lsize.(lv) <- lsize.(lv) + 1
    end
  done;
  (* roots are pinned for the whole session — sifting preserves every
     root's function in place, so the pins are never released *)
  List.iter (fun r -> if r > 1 then refc.(r) <- refc.(r) + 1) roots;
  let s =
    {
      m;
      nv;
      order;
      levels;
      lsize;
      refc;
      cancel = (match cancel with Some c -> c | None -> Cancel.none);
      deadline = (match deadline with Some d -> d | None -> infinity);
      started = (match deadline with Some _ -> Unix.gettimeofday () | None -> 0.0);
      max_swaps = (match max_swaps with Some k -> k | None -> max_int);
      max_new_nodes = (match max_new_nodes with Some k -> k | None -> max_int);
      base_n = n0;
      swaps = 0;
      exhausted = false;
    }
  in
  let nodes_before = Robdd.live_nodes m in
  Dpa_obs.Metrics.add c_before nodes_before;
  let vars_sifted = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      (* runs on budget exhaustion and cancellation too: the swap-boundary
         checkpoints guarantee consistency, but memo entries minted before
         the session must still never outlive it *)
      Robdd.clear_ite_cache m;
      Dpa_obs.Metrics.add c_swaps s.swaps;
      Dpa_obs.Metrics.add c_after (Robdd.live_nodes m))
    (fun () ->
      checkpoint s;
      (try
         for _pass = 1 to passes do
           let before_pass = Robdd.live_nodes m in
           (* largest level first: the variables responsible for the bulk
              of the graph move while the graph is still easy to improve *)
           let by_size = Array.init nv (fun l -> (s.lsize.(l), s.order.(l))) in
           Array.sort
             (fun (sa, va) (sb, vb) -> if sb <> sa then compare sb sa else compare va vb)
             by_size;
           Array.iter
             (fun (_, v) ->
               let cur = ref (-1) in
               Array.iteri (fun l v' -> if v' = v then cur := l) s.order;
               if s.lsize.(!cur) > 0 then begin
                 sift_var s !cur ~max_growth;
                 incr vars_sifted
               end)
             by_size;
           if Robdd.live_nodes m >= before_pass then raise Exit
         done
       with Exit -> ());
      {
        swaps = s.swaps;
        vars_sifted = !vars_sifted;
        nodes_before;
        nodes_after = Robdd.live_nodes m;
        reclaimed = Robdd.reclaimed_nodes m - reclaimed0;
        allocated = Robdd.total_nodes m - n0;
      })
