(** Work-conserving domain pool.  See pool.mli. *)

(* ------------------------------------------------------------------ *)
(* Metrics plumbing                                                    *)
(*                                                                     *)
(* The pool is a util-layer module, so it cannot depend on the         *)
(* telemetry sink; instead it keeps its own counters and histograms    *)
(* and lets the telemetry layer install a clock (microseconds) and     *)
(* flip the recording gate.  Everything is off by default: with the    *)
(* gate closed, submit/worker paths pay one boolean test and no clock  *)
(* reads, so the jobs=1 oracle (which never builds a pool at all) is   *)
(* unperturbed.                                                        *)
(* ------------------------------------------------------------------ *)

let clock : (unit -> float) ref = ref (fun () -> 0.0)
let set_clock f = clock := f

let metrics_enabled = ref false
let set_metrics b = metrics_enabled := b

(* Per-task state switches, one per module that keeps per-domain
   "current task" state in [Domain.DLS] (a metric or finding buffer, a
   tick clock).  Registered at module initialisation, before any pool
   exists. *)
let task_contexts : (unit -> unit -> unit -> unit) list ref = ref []
let add_task_context enter = task_contexts := enter :: !task_contexts

type worker_stat = {
  w_id : int;
  mutable w_tasks : int;
  mutable w_busy_us : float;
}

type pool_metrics = {
  pm_submitted : int Atomic.t;
  pm_completed : int Atomic.t;
  pm_workers : worker_stat array;
      (** one slot per worker domain, then the caller slot shared by
          every non-worker domain that helps inside [await] *)
  pm_m : Mutex.t;  (** guards the histograms and the caller slot *)
  pm_wait : Histogram.t;  (** queue wait: enqueue -> dequeue, us *)
  pm_run : Histogram.t;  (** task latency: dequeue -> done, us *)
  pm_since_us : float;  (** clock reading at pool creation *)
}

(* The executing worker's own slot, tagged with its pool's metrics so a
   worker helping another pool's await records in that pool's caller
   slot.  Written only by that worker. *)
let worker_slot : (pool_metrics * worker_stat) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Instrumented tasks on this domain's stack.  A domain that helps
   inside [await] runs tasks on top of the task it awaits in; only the
   outermost one adds busy time, so nested tasks are not counted twice. *)
let task_depth : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* ------------------------------------------------------------------ *)
(* Pool state                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  n_jobs : int;
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;  (** guards the queue, [closed], [asleep] and every outcome *)
  work : Condition.t;  (** workers: queue became non-empty or the pool closed *)
  settled : Condition.t;  (** awaiters: queue became non-empty or a future resolved *)
  mutable asleep : int;  (** awaiters waiting on [settled] *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  pm : pool_metrics;
}

let jobs t = t.n_jobs

let worker_loop pool slot () =
  Domain.DLS.set worker_slot (Some (pool.pm, slot));
  let rec next () =
    Mutex.lock pool.m;
    while Queue.is_empty pool.queue && not pool.closed do
      Condition.wait pool.work pool.m
    done;
    match Queue.take_opt pool.queue with
    | None ->
      (* closed and drained *)
      Mutex.unlock pool.m
    | Some job ->
      Mutex.unlock pool.m;
      job ();
      next ()
  in
  next ()

let clamp_jobs j = Stdlib.max 1 (Stdlib.min 128 j)

(* [jobs] domains run tasks: [jobs - 1] workers plus the caller, which
   runs queued tasks whenever it awaits. *)
let create ~jobs =
  let n_jobs = clamp_jobs jobs in
  let pm =
    { pm_submitted = Atomic.make 0; pm_completed = Atomic.make 0;
      pm_workers =
        Array.init n_jobs (fun i -> { w_id = i; w_tasks = 0; w_busy_us = 0.0 });
      pm_m = Mutex.create (); pm_wait = Histogram.create ();
      pm_run = Histogram.create (); pm_since_us = !clock () }
  in
  let pool =
    { n_jobs; queue = Queue.create (); m = Mutex.create ();
      work = Condition.create (); settled = Condition.create (); asleep = 0;
      closed = false; workers = []; pm }
  in
  pool.workers <-
    List.init (n_jobs - 1) (fun i ->
        Domain.spawn (worker_loop pool pm.pm_workers.(i)));
  pool

let shutdown pool =
  let workers =
    Mutex.lock pool.m;
    if pool.closed then begin
      Mutex.unlock pool.m;
      []
    end
    else begin
      pool.closed <- true;
      Condition.broadcast pool.work;
      let ws = pool.workers in
      pool.workers <- [];
      Mutex.unlock pool.m;
      ws
    end
  in
  List.iter Domain.join workers;
  (* Tasks nobody awaited (a jobs=1 pool has no worker to drain them)
     still run, so every future resolves. *)
  let rec drain () =
    Mutex.lock pool.m;
    let job = Queue.take_opt pool.queue in
    Mutex.unlock pool.m;
    Option.iter (fun job -> job (); drain ()) job
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)
(* ------------------------------------------------------------------ *)

type 'a outcome =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  pool : t;
  mutable outcome : 'a outcome;  (** written under [pool.m] *)
  mutable merges : (unit -> unit) list;
      (** the task's records, left for the first [await]; under [pool.m] *)
}

(* Every task runs inside a fresh context of each registered module,
   wherever it runs: at a worker's top level or helped inside an
   [await].  Leaving the contexts (in the reverse of the order entered)
   restores the interrupted state and yields the merges that hand the
   task's records to its future. *)
let run_into fut f =
  let leaves = List.fold_left (fun acc enter -> enter () :: acc) [] !task_contexts in
  let outcome =
    match f () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  let merges = List.map (fun leave -> leave ()) leaves in
  let pool = fut.pool in
  Mutex.lock pool.m;
  fut.outcome <- outcome;
  fut.merges <- merges;
  if pool.asleep > 0 then Condition.broadcast pool.settled;
  Mutex.unlock pool.m

(* All recording happens inside the task, *before* [run_into] resolves
   the future: a caller that awaits every future and then snapshots
   [stats] is guaranteed submitted = completed (no trailing updates race
   with the export). *)
let instrumented pm ~enq_us f () =
  let t0 = !clock () in
  let depth = Domain.DLS.get task_depth in
  incr depth;
  Fun.protect f ~finally:(fun () ->
      decr depth;
      let dt = !clock () -. t0 in
      let busy = if !depth = 0 then dt else 0.0 in
      let tally w =
        w.w_tasks <- w.w_tasks + 1;
        w.w_busy_us <- w.w_busy_us +. busy
      in
      let own_slot =
        match Domain.DLS.get worker_slot with
        | Some (owner, w) when owner == pm -> tally w; true
        | _ -> false
      in
      Atomic.incr pm.pm_completed;
      Mutex.lock pm.pm_m;
      if not own_slot then tally pm.pm_workers.(Array.length pm.pm_workers - 1);
      Histogram.observe pm.pm_wait (Stdlib.max 0.0 (t0 -. enq_us));
      Histogram.observe pm.pm_run dt;
      Mutex.unlock pm.pm_m)

let submit pool f =
  let fut = { pool; outcome = Pending; merges = [] } in
  Mutex.lock pool.m;
  if pool.closed then begin
    Mutex.unlock pool.m;
    invalid_arg "Util.Pool.submit: pool is shut down"
  end;
  let job =
    if !metrics_enabled then begin
      let pm = pool.pm in
      Atomic.incr pm.pm_submitted;
      let enq_us = !clock () in
      fun () -> run_into fut (instrumented pm ~enq_us f)
    end
    else fun () -> run_into fut f
  in
  Queue.add job pool.queue;
  Condition.signal pool.work;
  if pool.asleep > 0 then Condition.broadcast pool.settled;
  Mutex.unlock pool.m;
  fut

(* Hand a resolved future's records to the sink active on the awaiting
   domain, once: later awaits find the list empty.  Called with
   [pool.m] held; releases it. *)
let merge_resolved fut =
  let merges = fut.merges in
  fut.merges <- [];
  Mutex.unlock fut.pool.m;
  List.iter (fun merge -> merge ()) merges

(* Work-conserving wait: until the future resolves, run queued tasks,
   and sleep only when the queue is empty (the task is then running on
   another domain, which broadcasts [settled] when it resolves). *)
let await fut =
  let pool = fut.pool in
  Mutex.lock pool.m;
  let rec loop () =
    match fut.outcome with
    | Done v ->
      merge_resolved fut;
      v
    | Failed (e, bt) ->
      merge_resolved fut;
      Printexc.raise_with_backtrace e bt
    | Pending ->
      (match Queue.take_opt pool.queue with
       | Some job ->
         Mutex.unlock pool.m;
         job ();
         Mutex.lock pool.m
       | None ->
         pool.asleep <- pool.asleep + 1;
         Condition.wait pool.settled pool.m;
         pool.asleep <- pool.asleep - 1);
      loop ()
  in
  loop ()

(* Await in submission order: the join point of the fan-out/fan-in
   pattern the pipelined audit uses.  Waiting on an early future while
   later ones complete is fine — their outcomes are retained. *)
let await_all futs = List.map await futs

(* ------------------------------------------------------------------ *)
(* Order-preserving chunked map                                        *)
(* ------------------------------------------------------------------ *)

let chunks_of size xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n + 1 >= size then go (List.rev (x :: cur) :: acc) [] 0 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let map_chunked ?chunk_size pool f xs =
  match xs with
  | [] -> []
  | _ ->
    let n = List.length xs in
    let size =
      match chunk_size with
      | Some c -> Stdlib.max 1 c
      | None -> Stdlib.max 1 ((n + (4 * pool.n_jobs) - 1) / (4 * pool.n_jobs))
    in
    let futures =
      List.map (fun chunk -> submit pool (fun () -> List.map f chunk))
        (chunks_of size xs)
    in
    List.concat_map await futures

(* ------------------------------------------------------------------ *)
(* Process-wide default pool                                           *)
(* ------------------------------------------------------------------ *)

let env_default () =
  match Sys.getenv_opt "ADCHECK_JOBS" with
  | Some s -> (match int_of_string_opt (String.trim s) with
               | Some j when j >= 1 -> clamp_jobs j
               | _ -> 1)
  | None -> 1

let default = ref None  (* None until first read; then Some jobs *)
let global_pool = ref None

let default_jobs () =
  match !default with
  | Some j -> j
  | None ->
    let j = env_default () in
    default := Some j;
    j

let drop_global () =
  match !global_pool with
  | None -> ()
  | Some pool ->
    global_pool := None;
    shutdown pool

let set_default_jobs j =
  let j = clamp_jobs j in
  if !default <> Some j then begin
    default := Some j;
    drop_global ()
  end

let () = at_exit drop_global

let global () =
  if default_jobs () <= 1 then None
  else
    match !global_pool with
    | Some pool -> Some pool
    | None ->
      let pool = create ~jobs:(default_jobs ()) in
      global_pool := Some pool;
      Some pool

let parallel_map ?chunk_size f xs =
  match global () with
  | None -> List.map f xs
  | Some pool -> map_chunked ?chunk_size pool f xs

(* ------------------------------------------------------------------ *)
(* Metrics snapshot                                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_jobs : int;
  st_submitted : int;
  st_completed : int;
  st_inline : int;
  st_workers : (int * int * float) list;  (** (id, tasks, busy_us) *)
  st_queue_wait : Histogram.t;
  st_task_run : Histogram.t;
  st_since_us : float;
}

let stats pool =
  let pm = pool.pm in
  Mutex.lock pm.pm_m;
  let wait = Histogram.copy pm.pm_wait in
  let run = Histogram.copy pm.pm_run in
  let workers =
    Array.to_list
      (Array.map (fun w -> (w.w_id, w.w_tasks, w.w_busy_us)) pm.pm_workers)
  in
  Mutex.unlock pm.pm_m;
  {
    st_jobs = pool.n_jobs;
    st_submitted = Atomic.get pm.pm_submitted;
    st_completed = Atomic.get pm.pm_completed;
    st_inline = 0;
    st_workers = workers;
    st_queue_wait = wait;
    st_task_run = run;
    st_since_us = pm.pm_since_us;
  }

(* Snapshot of the running global pool without creating one: the
   metrics exporter calls this after the run, when forcing a pool into
   existence would fabricate an all-zero record. *)
let global_stats () = Option.map stats !global_pool
