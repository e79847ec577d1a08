(* Each participant owns one slot of [ranges]: a packed, sequence-stamped
   [lo, hi) interval of task indices. Owners pop from the low end; idle
   participants steal the upper half of the fullest slot. Every slot
   transition is a CAS, and the stamp (incremented on every write) makes
   a recycled interval value distinguishable from the original, so a
   stale CAS can never double-assign work (the classic ABA hazard). *)

(* slot layout: [stamp : 23 bits][lo : 20 bits][hi : 20 bits] *)
let idx_bits = 20
let idx_mask = (1 lsl idx_bits) - 1
let max_tasks = idx_mask

let pack ~stamp ~lo ~hi =
  ((stamp land 0x7FFFFF) lsl (2 * idx_bits)) lor (lo lsl idx_bits) lor hi

let slot_lo s = (s lsr idx_bits) land idx_mask
let slot_hi s = s land idx_mask
let slot_stamp s = s lsr (2 * idx_bits)
let slot_len s = slot_hi s - slot_lo s

type region = {
  run : int -> unit;  (* never raises; failures land in the region's arrays *)
  ranges : int Atomic.t array;
  remaining : int Atomic.t;
  lowest_failure : int Atomic.t;
      (* lowest failed index so far ([max_int]: none); tasks above it are
         drained without executing, tasks below it still run, so the
         lowest failing index is found whatever the schedule *)
  region_steals : int Atomic.t;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* workers: a new region (or shutdown) is up *)
  finished : Condition.t;  (* submitter: the region's last task completed *)
  mutable region : region option;
  mutable epoch : int;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  submit_mutex : Mutex.t;  (* serializes whole regions across submitters *)
  mutable tasks_total : int;
  mutable steals_total : int;
}

type stats = {
  tasks : int;
  steals : int;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Tasks must be leaves: a task that re-enters the pool would deadlock on
   [submit_mutex] (own pool) or invert the determinism contract (another
   pool), so both are rejected. The flag is per-domain, not per-pool. *)
let in_task_key = Domain.DLS.new_key (fun () -> ref false)

let take_own r w =
  let slot = r.ranges.(w) in
  let rec go () =
    let cur = Atomic.get slot in
    let lo = slot_lo cur and hi = slot_hi cur in
    if lo >= hi then -1
    else if
      Atomic.compare_and_set slot cur
        (pack ~stamp:(slot_stamp cur + 1) ~lo:(lo + 1) ~hi)
    then lo
    else go ()
  in
  go ()

(* One steal attempt: pick the victim with the most remaining work and
   move the upper half of its range into our own (empty) slot. Returns
   [true] if a rescan is worthwhile (we stole, or we lost a race). *)
let try_steal r w =
  let best = ref (-1) and best_len = ref 0 in
  Array.iteri
    (fun v slot ->
      if v <> w then begin
        let len = slot_len (Atomic.get slot) in
        if len > !best_len then begin
          best := v;
          best_len := len
        end
      end)
    r.ranges;
  if !best < 0 then false
  else begin
    let victim = r.ranges.(!best) in
    let cur = Atomic.get victim in
    let lo = slot_lo cur and hi = slot_hi cur in
    if hi <= lo then true (* drained under us; rescan *)
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if Atomic.compare_and_set victim cur (pack ~stamp:(slot_stamp cur + 1) ~lo ~hi:mid)
      then begin
        Atomic.incr r.region_steals;
        (* our own slot is empty and only non-empty slots are stolen
           from, so this install cannot lose work to a concurrent thief;
           the retry loop keeps it safe even so *)
        let own = r.ranges.(w) in
        let rec install () =
          let mine = Atomic.get own in
          if
            not
              (Atomic.compare_and_set own mine
                 (pack ~stamp:(slot_stamp mine + 1) ~lo:mid ~hi))
          then install ()
        in
        install ();
        true
      end
      else true (* contended; rescan *)
    end
  end

let finish_task pool r =
  if Atomic.fetch_and_add r.remaining (-1) = 1 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.finished;
    Mutex.unlock pool.mutex
  end

let rec participate pool r w =
  let i = take_own r w in
  if i >= 0 then begin
    if i < Atomic.get r.lowest_failure then r.run i;
    finish_task pool r;
    participate pool r w
  end
  else if try_steal r w then participate pool r w

let enter_region pool r w =
  let in_task = Domain.DLS.get in_task_key in
  in_task := true;
  participate pool r w;
  in_task := false

let worker_body pool w =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while (not pool.stopping) && pool.epoch = !seen do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stopping then Mutex.unlock pool.mutex
    else begin
      seen := pool.epoch;
      let r = pool.region in
      Mutex.unlock pool.mutex;
      (* [region] may already be [None]: the epoch also advances when a
         region completes before a late worker wakes up *)
      Option.iter (fun r -> enter_region pool r w) r;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  if jobs < 1 || jobs > 126 then invalid_arg "Par.create: jobs must be in 1 .. 126";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      region = None;
      epoch = 0;
      stopping = false;
      domains = [];
      submit_mutex = Mutex.create ();
      tasks_total = 0;
      steals_total = 0;
    }
  in
  pool.domains <-
    List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker_body pool (k + 1)));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  let ds = pool.domains in
  pool.domains <- [];
  List.iter Domain.join ds

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let reject_if_nested what =
  if !(Domain.DLS.get in_task_key) then
    invalid_arg (what ^ ": nested parallel region (tasks must be leaves)")

(* Raise the failure of the lowest-indexed failed task, then unpack. *)
let collect results failures n =
  let rec scan i =
    if i < n then
      match failures.(i) with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> scan (i + 1)
  in
  scan 0;
  Array.map (function Some v -> v | None -> assert false) results

let map pool n f =
  reject_if_nested "Par.map";
  if n < 0 then invalid_arg "Par.map: negative task count";
  if n > max_tasks then
    invalid_arg (Printf.sprintf "Par.map: %d tasks exceeds the %d cap" n max_tasks);
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let failures = Array.make n None in
    if pool.jobs = 1 || n = 1 then begin
      (* inline fast path: same nested-use rejection, no handoff *)
      let in_task = Domain.DLS.get in_task_key in
      in_task := true;
      Fun.protect
        ~finally:(fun () -> in_task := false)
        (fun () ->
          for i = 0 to n - 1 do
            match f i with
            | v -> results.(i) <- Some v
            | exception e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
          done);
      Mutex.lock pool.mutex;
      pool.tasks_total <- pool.tasks_total + n;
      Mutex.unlock pool.mutex;
      collect results failures n
    end
    else begin
      Mutex.lock pool.submit_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock pool.submit_mutex) @@ fun () ->
      let lowest_failure = Atomic.make max_int in
      let run i =
        match f i with
        | v -> results.(i) <- Some v
        | exception e ->
          failures.(i) <- Some (e, Printexc.get_raw_backtrace ());
          let rec lower () =
            let cur = Atomic.get lowest_failure in
            if i < cur && not (Atomic.compare_and_set lowest_failure cur i) then lower ()
          in
          lower ()
      in
      let j = pool.jobs in
      let ranges =
        Array.init j (fun w ->
            Atomic.make (pack ~stamp:0 ~lo:(w * n / j) ~hi:((w + 1) * n / j)))
      in
      let r =
        {
          run;
          ranges;
          remaining = Atomic.make n;
          lowest_failure;
          region_steals = Atomic.make 0;
        }
      in
      Mutex.lock pool.mutex;
      pool.epoch <- pool.epoch + 1;
      pool.region <- Some r;
      Condition.broadcast pool.work;
      Mutex.unlock pool.mutex;
      enter_region pool r 0;
      Mutex.lock pool.mutex;
      while Atomic.get r.remaining > 0 do
        Condition.wait pool.finished pool.mutex
      done;
      pool.region <- None;
      (* bump the epoch so a worker that never saw this region does not
         mistake the next one for it *)
      pool.epoch <- pool.epoch + 1;
      pool.tasks_total <- pool.tasks_total + n;
      pool.steals_total <- pool.steals_total + Atomic.get r.region_steals;
      Mutex.unlock pool.mutex;
      collect results failures n
    end
  end

let reduce pool n ~map:f ~fold ~init = Array.fold_left fold init (map pool n f)

let stats pool =
  Mutex.lock pool.mutex;
  let s = { tasks = pool.tasks_total; steals = pool.steals_total } in
  Mutex.unlock pool.mutex;
  s
