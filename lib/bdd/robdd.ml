module Int3_table = Dpa_util.Int3_table

type node = int

type stats = {
  nodes : int;
  unique_probes : int;
  unique_hits : int;
  unique_resizes : int;
  ite_probes : int;
  ite_hits : int;
  ite_resizes : int;
  collections : int;
  nodes_freed : int;
}

let zero_stats =
  {
    nodes = 0;
    unique_probes = 0;
    unique_hits = 0;
    unique_resizes = 0;
    ite_probes = 0;
    ite_hits = 0;
    ite_resizes = 0;
    collections = 0;
    nodes_freed = 0;
  }

(* Node attributes live in three parallel int arrays indexed by node id
   (grown manually — a polymorphic Vec would reintroduce bounds checks in
   the hot loop). The unique table is an open-addressing int table: no
   boxed (int*int*int) keys, no polymorphic hashing. The ite memo is a
   computed table in the manner of Brace, Rudell and Bryant (DAC 1990):
   direct-mapped, one entry per hash, overwritten on collision. Losing an
   entry only costs a recomputation whose every [mk] hits the unique
   table, so node ids and allocation order never depend on it. Ids freed
   by [collect] wait on a free list threaded through [lo], and [new_node]
   takes from it before it hands out a new id. *)
type manager = {
  nv : int;
  mutable lvl : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable n : int; (* ids handed out so far; ids are 0 … n-1 *)
  mutable free : int; (* head of the free list; -1 when empty *)
  mutable n_free : int; (* ids on the free list *)
  mutable reused : int; (* allocations the free list served *)
  mutable collections : int;
  mutable freed : int; (* ids freed by every collection so far *)
  unique : Int3_table.t;
  (* computed table, stride 4: [f; g; h; ite f g h]; f = -1 marks empty *)
  mutable cache : int array;
  mutable cache_mask : int; (* entries - 1; entries is a power of two *)
  mutable cache_probes : int;
  mutable cache_hits : int;
  mutable cache_resizes : int;
  (* resource budget; max_int / infinity mean unlimited. The deadline is an
     absolute Unix.gettimeofday value, polled every [deadline_stride]
     allocations so the hot path never pays a syscall per node. *)
  mutable max_nodes : int;
  mutable deadline : float;
  mutable started : float;
  mutable deadline_tick : int;
  mutable budget_context : string;
  (* cooperative cancellation: the flag is polled per allocation (one
     atomic load), the token's deadline rides the same stride as the
     budget deadline. [guarded] caches "any bound installed at all" so
     the unbudgeted hot path stays a single bool test. *)
  mutable cancel : Dpa_util.Cancel.t;
  mutable guarded : bool;
  (* counters already folded into the metrics registry, so repeated
     [publish_metrics] calls on one manager add only the growth since the
     previous call *)
  mutable published : stats;
  (* managers are single-domain: the unique table, computed table and
     node store are unsynchronized, so cross-domain mutation is memory-unsafe,
     not just nondeterministic. Mutating entry points assert the caller
     is the owning domain; [adopt] re-homes a manager after a legitimate
     single-threaded handoff. *)
  mutable owner : int;
}

let deadline_stride = 1024

let bdd_false = 0
let bdd_true = 1
let terminal_level = max_int

(* The computed table doubles while the live node count exceeds its
   entry count, up to this many entries (32 MB). *)
let cache_ceiling = 1 lsl 20

let create_sized ~nvars ~cache_capacity =
  let cap = 256 in
  let entries =
    let rec pow2 c = if c >= cache_capacity || c >= cache_ceiling then c else pow2 (2 * c) in
    pow2 16
  in
  let m =
    {
      nv = nvars;
      lvl = Array.make cap terminal_level;
      lo = Array.make cap 0;
      hi = Array.make cap 0;
      n = 2;
      free = -1;
      n_free = 0;
      reused = 0;
      collections = 0;
      freed = 0;
      unique = Int3_table.create ~capacity:cache_capacity ();
      cache = Array.make (4 * entries) (-1);
      cache_mask = entries - 1;
      cache_probes = 0;
      cache_hits = 0;
      cache_resizes = 0;
      max_nodes = max_int;
      deadline = infinity;
      started = 0.0;
      deadline_tick = deadline_stride;
      budget_context = "";
      cancel = Dpa_util.Cancel.none;
      guarded = false;
      published = zero_stats;
      owner = (Domain.self () :> int);
    }
  in
  (* terminals occupy ids 0 and 1 *)
  m.lo.(0) <- 0;
  m.hi.(0) <- 0;
  m.lo.(1) <- 1;
  m.hi.(1) <- 1;
  m

let create ~nvars = create_sized ~nvars ~cache_capacity:1024

let nvars m = m.nv

let check_owner m op =
  let d = (Domain.self () :> int) in
  if d <> m.owner then
    Dpa_util.Dpa_error.error
      (Dpa_util.Dpa_error.Internal
         (Printf.sprintf
            "Robdd.%s: manager owned by domain %d used from domain %d (managers are \
             single-domain; see DESIGN.md §11)"
            op m.owner d))

let adopt m = m.owner <- (Domain.self () :> int)

let is_terminal n = n = bdd_false || n = bdd_true

let total_nodes m = m.n

let live_nodes m = m.n - m.n_free

let grow_nodes m =
  let cap = Array.length m.lvl in
  let cap' = 2 * cap in
  if Dpa_obs.Trace.is_enabled () then
    Dpa_obs.Trace.instant "bdd.node_store.grow"
      ~args:[ ("capacity", Dpa_obs.Trace.Int cap'); ("nodes", Dpa_obs.Trace.Int m.n) ];
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  m.lvl <- extend m.lvl terminal_level;
  m.lo <- extend m.lo 0;
  m.hi <- extend m.hi 0

(* ------------------------------------------------------------------ *)
(* Resource budget                                                      *)
(* ------------------------------------------------------------------ *)

let set_budget ?max_nodes ?deadline ?cancel ?(context = "") m =
  check_owner m "set_budget";
  m.max_nodes <- (match max_nodes with Some n -> n | None -> max_int);
  m.deadline <- (match deadline with Some d -> d | None -> infinity);
  m.started <- (if m.deadline = infinity then 0.0 else Unix.gettimeofday ());
  m.deadline_tick <- deadline_stride;
  m.budget_context <- context;
  m.cancel <- (match cancel with Some c -> c | None -> Dpa_util.Cancel.none);
  m.guarded <-
    m.max_nodes <> max_int || m.deadline < infinity
    || not (Dpa_util.Cancel.is_none m.cancel)

let clear_budget m = set_budget m

let set_budget_context m context = m.budget_context <- context

let check_budget m =
  (* explicit cancellation first: it is not a budget, so it must raise
     [Cancelled] (which fallback ladders propagate), not [Budget_exceeded]
     (which they catch) *)
  if Dpa_util.Cancel.flag_set m.cancel then Dpa_util.Cancel.check_flag m.cancel;
  (* live count, not ids handed out: ids a collection freed no longer
     occupy the caller's budget *)
  if live_nodes m >= m.max_nodes then
    Dpa_util.Dpa_error.budget_exceeded ~context:m.budget_context
      ~resource:Dpa_util.Dpa_error.Bdd_nodes
      ~limit:(float_of_int m.max_nodes) ~spent:(float_of_int (live_nodes m)) ();
  if m.deadline < infinity || Dpa_util.Cancel.has_deadline m.cancel then begin
    m.deadline_tick <- m.deadline_tick - 1;
    if m.deadline_tick <= 0 then begin
      m.deadline_tick <- deadline_stride;
      let now = Unix.gettimeofday () in
      Dpa_util.Cancel.check_at ~now m.cancel;
      if now > m.deadline then
        Dpa_util.Dpa_error.budget_exceeded ~context:m.budget_context
          ~resource:Dpa_util.Dpa_error.Wall_clock
          ~limit:(m.deadline -. m.started) ~spent:(now -. m.started) ()
    end
  end

(* Same avalanche as the unique table's hash, kept local so the probe in
   [ite_rec] costs no cross-module call. *)
let cache_hash f g h =
  let x = f * 0x2545F4914F6CDD1D in
  let x = (x lxor g) * 0x27D4EB2F165667C5 in
  let x = (x lxor h) * 0x165667B19E3779F9 in
  x lxor (x lsr 29)

let cache_store m f g h r =
  let c = m.cache in
  let base = 4 * (cache_hash f g h land m.cache_mask) in
  Array.unsafe_set c base f;
  Array.unsafe_set c (base + 1) g;
  Array.unsafe_set c (base + 2) h;
  Array.unsafe_set c (base + 3) r

(* Doubling adds one hash bit, so entry [i] moves to [i] or [i + entries]
   and no two survivors collide: the memo keeps everything it held. *)
let grow_cache m =
  let old = m.cache and old_entries = m.cache_mask + 1 in
  m.cache <- Array.make (8 * old_entries) (-1);
  m.cache_mask <- (2 * old_entries) - 1;
  m.cache_resizes <- m.cache_resizes + 1;
  for i = 0 to old_entries - 1 do
    let base = 4 * i in
    let f = Array.unsafe_get old base in
    if f >= 0 then
      cache_store m f
        (Array.unsafe_get old (base + 1))
        (Array.unsafe_get old (base + 2))
        (Array.unsafe_get old (base + 3))
  done

let new_node m l lo hi =
  if m.guarded then check_budget m;
  let id =
    if m.free >= 0 then begin
      let id = m.free in
      m.free <- Array.unsafe_get m.lo id;
      m.n_free <- m.n_free - 1;
      m.reused <- m.reused + 1;
      id
    end
    else begin
      if m.n = Array.length m.lvl then grow_nodes m;
      m.n <- m.n + 1;
      m.n - 1
    end
  in
  Array.unsafe_set m.lvl id l;
  Array.unsafe_set m.lo id lo;
  Array.unsafe_set m.hi id hi;
  if live_nodes m > m.cache_mask + 1 && m.cache_mask < cache_ceiling - 1 then grow_cache m;
  id

let level m n =
  if is_terminal n then invalid_arg "Robdd.level: terminal node" else Array.unsafe_get m.lvl n

let low m n = Array.unsafe_get m.lo n

let high m n = Array.unsafe_get m.hi n

(* Single probe per lookup-or-intern: the unique-table slot found by the
   probe receives the freshly allocated node on a miss. [new_node] never
   touches the unique table, so the reservation survives it; if it raises
   (budget, deadline, cancellation), nothing was inserted. *)
let mk m l lo hi =
  if lo = hi then lo
  else begin
    let r = Int3_table.find_or_reserve m.unique l lo hi in
    if r >= 0 then r
    else begin
      let id = new_node m l lo hi in
      Int3_table.insert_reserved m.unique r l lo hi id;
      id
    end
  end

let var m l =
  check_owner m "var";
  if l < 0 || l >= m.nv then invalid_arg (Printf.sprintf "Robdd.var: level %d out of range" l);
  mk m l bdd_false bdd_true

(* No tuple, closure or float is built on this path: cofactors are read
   one int at a time, and the memo probe is inline. *)
let rec ite_rec m f g h =
  if f = bdd_true then g
  else if f = bdd_false then h
  else if g = h then g
  else if g = bdd_true && h = bdd_false then f
  else begin
    m.cache_probes <- m.cache_probes + 1;
    let c = m.cache in
    let base = 4 * (cache_hash f g h land m.cache_mask) in
    if
      Array.unsafe_get c base = f
      && Array.unsafe_get c (base + 1) = g
      && Array.unsafe_get c (base + 2) = h
    then begin
      m.cache_hits <- m.cache_hits + 1;
      Array.unsafe_get c (base + 3)
    end
    else begin
      let lvl = m.lvl and lo = m.lo and hi = m.hi in
      let lf = Array.unsafe_get lvl f
      and lg = Array.unsafe_get lvl g
      and lh = Array.unsafe_get lvl h in
      let l = if lf < lg then lf else lg in
      let l = if lh < l then lh else l in
      (* Shannon cofactors on level [l]: a node deeper than [l] (terminals
         sit at [max_int]) is its own cofactor *)
      let f0 = if lf = l then Array.unsafe_get lo f else f
      and f1 = if lf = l then Array.unsafe_get hi f else f
      and g0 = if lg = l then Array.unsafe_get lo g else g
      and g1 = if lg = l then Array.unsafe_get hi g else g
      and h0 = if lh = l then Array.unsafe_get lo h else h
      and h1 = if lh = l then Array.unsafe_get hi h else h in
      let r0 = ite_rec m f0 g0 h0 in
      let r1 = ite_rec m f1 g1 h1 in
      let id = mk m l r0 r1 in
      (* the table may have doubled during the recursion: rehash the key *)
      cache_store m f g h id;
      id
    end
  end

(* ownership is asserted once per top-level call, not per recursion *)
let ite m f g h =
  check_owner m "ite";
  ite_rec m f g h

let apply_and m a b = ite m a b bdd_false

let apply_or m a b = ite m a bdd_true b

let neg m a = ite m a bdd_false bdd_true

let apply_xor m a b = ite m a (neg m b) b

let rec eval m f assignment =
  if f = bdd_true then true
  else if f = bdd_false then false
  else if assignment.(level m f) then eval m (high m f) assignment
  else eval m (low m f) assignment

(* Node ids are dense, so a byte per allocated node replaces the seen-set
   hash table of the generic visitor. *)
let visit_reachable m roots f =
  let seen = Bytes.make m.n '\000' in
  let rec go n =
    if (not (is_terminal n)) && Bytes.unsafe_get seen n = '\000' then begin
      Bytes.unsafe_set seen n '\001';
      f n;
      go (Array.unsafe_get m.lo n);
      go (Array.unsafe_get m.hi n)
    end
  in
  List.iter go roots

let shared_size m roots =
  let count = ref 0 in
  visit_reachable m roots (fun _ -> incr count);
  !count

let size m root = shared_size m [ root ]

let support m root =
  let used = Bytes.make m.nv '\000' in
  visit_reachable m [ root ] (fun n -> Bytes.set used (level m n) '\001');
  let acc = ref [] in
  for l = m.nv - 1 downto 0 do
    if Bytes.get used l = '\001' then acc := l :: !acc
  done;
  !acc

let to_dot m roots =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph robdd {\n  rankdir=TB;\n";
  Buffer.add_string buf "  t0 [shape=box,label=\"0\"];\n  t1 [shape=box,label=\"1\"];\n";
  visit_reachable m (List.map snd roots) (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle,label=\"x%d\"];\n" n (level m n));
      let edge child style =
        if is_terminal child then
          Buffer.add_string buf (Printf.sprintf "  n%d -> t%d [style=%s];\n" n child style)
        else Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [style=%s];\n" n child style)
      in
      edge (low m n) "dashed";
      edge (high m n) "solid");
  List.iter
    (fun (name, root) ->
      Buffer.add_string buf (Printf.sprintf "  r_%s [shape=plaintext,label=\"%s\"];\n" name name);
      if is_terminal root then
        Buffer.add_string buf (Printf.sprintf "  r_%s -> t%d;\n" name root)
      else Buffer.add_string buf (Printf.sprintf "  r_%s -> n%d;\n" name root))
    roots;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Probability evaluation memoizes per node id in a dense float array (NaN =
   not yet computed; terminals are seeded). Through [prob_cache] one memo
   serves any number of roots in the same manager and any number of
   calls, so re-evaluating an already-visited function is a lookup. *)

let fill_prob_memo memo =
  Array.fill memo 0 (Array.length memo) Float.nan;
  memo.(bdd_false) <- 0.0;
  memo.(bdd_true) <- 1.0;
  memo

let rec prob_go m probs memo n =
  let p = Array.unsafe_get memo n in
  if Float.is_nan p then begin
    let pv = Array.unsafe_get probs (Array.unsafe_get m.lvl n) in
    let p =
      (pv *. prob_go m probs memo (Array.unsafe_get m.hi n))
      +. ((1.0 -. pv) *. prob_go m probs memo (Array.unsafe_get m.lo n))
    in
    Array.unsafe_set memo n p;
    p
  end
  else p

let check_probs m probs =
  if Array.length probs <> m.nv then
    invalid_arg "Robdd.probability: probability vector length mismatch"

let probability m probs root =
  check_probs m probs;
  let memo = fill_prob_memo (Array.make m.n Float.nan) in
  prob_go m probs memo root

type prob_cache = {
  pm : manager;
  level_probs : float array;
  mutable memo : float array;
}

let prob_cache m probs =
  check_owner m "prob_cache";
  check_probs m probs;
  { pm = m; level_probs = Array.copy probs; memo = fill_prob_memo (Array.make (max m.n 2) Float.nan) }

let cached_probability c root =
  let m = c.pm in
  if Array.length c.memo < m.n then begin
    (* the manager grew since the last call; keep computed prefixes — a
       live id keeps its function, and [collect] resets the entry of every
       id it frees *)
    let memo = Array.make (Array.length m.lvl) Float.nan in
    Array.blit c.memo 0 memo 0 (Array.length c.memo);
    c.memo <- memo
  end;
  prob_go m c.level_probs c.memo root

(* ------------------------------------------------------------------ *)
(* Collection                                                           *)
(* ------------------------------------------------------------------ *)

(* [lvl] of an id on the free list, so a later sweep skips it *)
let free_level = -1

(* Mark and sweep (Brace, Rudell and Bryant, DAC 1990). A swept node is
   unlinked from the unique table before its [lo] slot becomes the free
   list's link. Nothing live can point at a swept node (a live parent
   would have marked it), so no surviving unique-table key or node names
   a freed id. Computed-table entries may, so the table is emptied. *)
let collect ?cache m roots =
  check_owner m "collect";
  (match cache with
  | Some c when c.pm != m -> invalid_arg "Robdd.collect: cache of another manager"
  | Some _ | None -> ());
  let marked = Bytes.make m.n '\000' in
  visit_reachable m roots (fun n -> Bytes.unsafe_set marked n '\001');
  let freed = ref 0 in
  for id = m.n - 1 downto 2 do
    let l = Array.unsafe_get m.lvl id in
    if Bytes.unsafe_get marked id = '\000' && l <> free_level then begin
      Int3_table.remove m.unique l (Array.unsafe_get m.lo id) (Array.unsafe_get m.hi id);
      Array.unsafe_set m.lvl id free_level;
      Array.unsafe_set m.lo id m.free;
      m.free <- id;
      (match cache with
      | Some c when id < Array.length c.memo -> Array.unsafe_set c.memo id Float.nan
      | Some _ | None -> ());
      incr freed
    end
  done;
  Array.fill m.cache 0 (Array.length m.cache) (-1);
  m.n_free <- m.n_free + !freed;
  m.collections <- m.collections + 1;
  m.freed <- m.freed + !freed;
  !freed

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                      *)
(* ------------------------------------------------------------------ *)

let stats m =
  {
    nodes = m.n + m.reused;
    unique_probes = Int3_table.probes m.unique;
    unique_hits = Int3_table.hits m.unique;
    unique_resizes = Int3_table.resizes m.unique;
    ite_probes = m.cache_probes;
    ite_hits = m.cache_hits;
    ite_resizes = m.cache_resizes;
    collections = m.collections;
    nodes_freed = m.freed;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "nodes=%d unique[probes=%d hits=%d (%.1f%%) resizes=%d] ite[probes=%d hits=%d (%.1f%%) resizes=%d]"
    s.nodes s.unique_probes s.unique_hits
    (if s.unique_probes = 0 then 0.0
     else 100.0 *. float_of_int s.unique_hits /. float_of_int s.unique_probes)
    s.unique_resizes s.ite_probes s.ite_hits
    (if s.ite_probes = 0 then 0.0
     else 100.0 *. float_of_int s.ite_hits /. float_of_int s.ite_probes)
    s.ite_resizes

(* The registry path: cumulative counters across every manager of the
   process, plus gauges for the last-published and peak manager sizes
   (a manager's size is its peak live count, [total_nodes]).
   Cells are resolved lazily so a process that never publishes never
   touches the registry. *)
let mc name help = Dpa_obs.Metrics.counter ~help name

let c_nodes = mc "bdd.nodes_allocated" "BDD nodes allocated across all managers"

let c_uprobes = mc "bdd.unique.probes" "unique-table probes"

let c_uhits = mc "bdd.unique.hits" "unique-table hits"

let c_uresizes = mc "bdd.unique.resizes" "unique-table resizes"

let c_iprobes = mc "bdd.ite.probes" "ite computed-table lookups"

let c_ihits = mc "bdd.ite.hits" "ite computed-table hits"

let c_iresizes = mc "bdd.ite.resizes" "ite computed-table doublings"

let c_collections = mc "bdd.collections" "mark-and-sweep collections"

let c_freed = mc "bdd.nodes_freed" "node ids freed by collections"

let g_manager = Dpa_obs.Metrics.gauge ~help:"nodes in the last published manager" "bdd.manager.nodes"

let g_peak =
  Dpa_obs.Metrics.gauge ~help:"peak live nodes of the largest manager seen" "bdd.manager.peak_nodes"

let publish_metrics m =
  let s = stats m in
  let p = m.published in
  let d cell get = Dpa_obs.Metrics.add cell (max 0 (get s - get p)) in
  d c_nodes (fun x -> x.nodes);
  d c_uprobes (fun x -> x.unique_probes);
  d c_uhits (fun x -> x.unique_hits);
  d c_uresizes (fun x -> x.unique_resizes);
  d c_iprobes (fun x -> x.ite_probes);
  d c_ihits (fun x -> x.ite_hits);
  d c_iresizes (fun x -> x.ite_resizes);
  d c_collections (fun x -> x.collections);
  d c_freed (fun x -> x.nodes_freed);
  Dpa_obs.Metrics.set g_manager (float_of_int (total_nodes m));
  Dpa_obs.Metrics.set_max g_peak (float_of_int (total_nodes m));
  m.published <- s
