(* A region hands out task indices from one atomic counter: every
   participant claims the next index with [fetch_and_add] until the
   counter passes [n]. A region holds at most a few hundred tasks of
   milliseconds to seconds each (an estimate's <= 16 shards, an
   exhaustive search's <= 1,024 candidates), so one shared counter is
   never the bottleneck, and claiming one task at a time balances
   irregular costs. Claims are increasing, so when a task fails every
   lower index has already been claimed and will run; a claim above the
   lowest failure is skipped. *)

type region = {
  run : int -> unit;  (* never raises; failures land in the region's arrays *)
  n : int;
  next : int Atomic.t;  (* the next unclaimed index *)
  remaining : int Atomic.t;  (* tasks not yet finished (run or skipped) *)
  lowest_failure : int Atomic.t;  (* lowest failed index so far ([max_int]: none) *)
  worker_tasks : int Atomic.t;  (* tasks run by worker domains *)
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
  mutable worker_tasks_total : int;
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

let finish_task pool r =
  if Atomic.fetch_and_add r.remaining (-1) = 1 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.finished;
    Mutex.unlock pool.mutex
  end

let rec participate pool r ~worker =
  let i = Atomic.fetch_and_add r.next 1 in
  if i < r.n then begin
    if i < Atomic.get r.lowest_failure then begin
      r.run i;
      if worker then Atomic.incr r.worker_tasks
    end;
    finish_task pool r;
    participate pool r ~worker
  end

let enter_region pool r ~worker =
  let in_task = Domain.DLS.get in_task_key in
  in_task := true;
  participate pool r ~worker;
  in_task := false

let worker_body pool =
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
      Option.iter (fun r -> enter_region pool r ~worker:true) r;
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
      worker_tasks_total = 0;
    }
  in
  pool.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_body pool));
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
  let results = Array.make n None in
  let failures = Array.make n None in
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
  let r =
    {
      run;
      n;
      next = Atomic.make 0;
      remaining = Atomic.make n;
      lowest_failure;
      worker_tasks = Atomic.make 0;
    }
  in
  if pool.jobs = 1 || n <= 1 then
    (* inline: the submitter runs the region alone, with no handoff *)
    enter_region pool r ~worker:false
  else begin
    Mutex.lock pool.submit_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock pool.submit_mutex) @@ fun () ->
    Mutex.lock pool.mutex;
    pool.epoch <- pool.epoch + 1;
    pool.region <- Some r;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    enter_region pool r ~worker:false;
    Mutex.lock pool.mutex;
    while Atomic.get r.remaining > 0 do
      Condition.wait pool.finished pool.mutex
    done;
    pool.region <- None;
    (* bump the epoch so a worker that never saw this region does not
       mistake the next one for it *)
    pool.epoch <- pool.epoch + 1;
    Mutex.unlock pool.mutex
  end;
  Mutex.lock pool.mutex;
  pool.tasks_total <- pool.tasks_total + n;
  pool.worker_tasks_total <- pool.worker_tasks_total + Atomic.get r.worker_tasks;
  Mutex.unlock pool.mutex;
  collect results failures n

let stats pool =
  Mutex.lock pool.mutex;
  let s = { tasks = pool.tasks_total; steals = pool.worker_tasks_total } in
  Mutex.unlock pool.mutex;
  s
