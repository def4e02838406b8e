(** Work-conserving domain pool for CPU-parallel analysis stages.

    A pool created with [~jobs:n] runs tasks on [n] domains at once:
    [n - 1] worker domains fed from a shared FIFO queue
    ([Mutex]/[Condition], no dependencies beyond the stdlib), plus the
    caller, which runs queued tasks whenever it {!await}s.  Work is
    submitted as thunks and collected through futures; {!map_chunked}
    builds the common fan-out/fan-in shape on top and always preserves
    input order, so parallel callers produce byte-identical results to
    the sequential code path.

    Because an awaiting domain keeps running queued tasks, a task may
    submit to its own pool and await the result: nested fan-out never
    leaves a domain blocked while work is queued.  Tasks await only
    futures they submitted themselves (fork-join); awaiting a sibling's
    future from inside a task could find that sibling suspended beneath
    the awaiting task on the same domain.

    Concurrency policy for the analysis pipeline:
    - parallelism is *configuration*, never semantics: every parallel
      call site must have an exact sequential fallback at [jobs = 1]
      (the oracle the differential tests compare against);
    - tasks must not mutate shared state — results are merged on the
      caller in input order (see {!Telemetry.parallel_map} for the
      counter-merging veneer).

    The process-wide default domain count comes from the [ADCHECK_JOBS]
    environment variable and the [--jobs] CLI flag via
    {!set_default_jobs}; the shared pool in {!global} is (re)built
    lazily from that default. *)

type t

(** [create ~jobs] runs tasks on [jobs] domains (clamped to [1, 128]):
    it spawns [jobs - 1] workers, and the caller makes up the last one
    by running queued tasks inside {!await}.  At [jobs = 1] no domain is
    spawned and every task runs on the domain that awaits it. *)
val create : jobs:int -> t

(** Domain count the pool was created with (workers plus the caller). *)
val jobs : t -> int

(** Signal workers to exit once the queue drains and join them; tasks
    still queued then run on the caller, so every future resolves.
    Idempotent.  Submitting to a shut-down pool raises
    [Invalid_argument]. *)
val shutdown : t -> unit

(* ------------------------------------------------------------------ *)
(* Submit / await                                                      *)
(* ------------------------------------------------------------------ *)

type 'a future

(** Enqueue a task.  Always enqueues, also from inside a running task:
    the domain that awaits the nested future keeps running queued tasks,
    so a saturated pool still drains. *)
val submit : t -> (unit -> 'a) -> 'a future

(** Return the task's result, running queued tasks (any task, in queue
    order) on the calling domain until it is available; sleep only while
    the queue is empty.  Re-raises the task's exception (with its
    original backtrace) if it failed, whichever domain ran it. *)
val await : 'a future -> 'a

(** Await every future, returning results in submission order — the
    fan-in half of the future-per-phase pattern (the pipelined audit
    submits independent phases from the main domain and joins here).
    Re-raises the first listed failure. *)
val await_all : 'a future list -> 'a list

(* ------------------------------------------------------------------ *)
(* Order-preserving parallel map                                       *)
(* ------------------------------------------------------------------ *)

(** [map_chunked pool f xs] applies [f] to every element of [xs] across
    the pool and returns the results in input order.  Elements are
    grouped into contiguous chunks of [chunk_size] (default: spread over
    [4 * jobs] tasks) so per-task overhead amortizes over tiny work
    items.  The first failing element's exception is re-raised. *)
val map_chunked : ?chunk_size:int -> t -> ('a -> 'b) -> 'a list -> 'b list

(* ------------------------------------------------------------------ *)
(* Process-wide default                                                *)
(* ------------------------------------------------------------------ *)

(** Default domain count: the last {!set_default_jobs}, else
    [ADCHECK_JOBS], else 1 (strictly sequential). *)
val default_jobs : unit -> int

(** Override the default (the [--jobs] flag).  Changing the value
    shuts down the current global pool; the next {!global} rebuilds it. *)
val set_default_jobs : int -> unit

(** The shared pool at the current default, or [None] when the default
    is 1 — callers use [None] to select their exact sequential path. *)
val global : unit -> t option

(* ------------------------------------------------------------------ *)
(* Flight-recorder instrumentation                                     *)
(* ------------------------------------------------------------------ *)

(** Install the microsecond clock the instrumentation reads.  The
    telemetry layer installs the {e wall} clock here — never its
    pluggable tick clock: pool metrics are runtime-tier, and a pool
    clock read on a worker domain under the tick clock would perturb
    the work-tier timed regions running there.  Defaults to a constant
    0. *)
val set_clock : (unit -> float) -> unit

(** Add a context switch around every task that a domain runs while it
    helps inside {!await}: the hook is called just before the task and
    returns the function called just after it.  A helped task must run
    as it would at a worker's top level, so every module that keeps
    per-domain "current task" state in [Domain.DLS] (a buffer that a
    task's records go into, a clock a timed region reads) registers one
    that saves and clears that state and restores it afterwards;
    otherwise a helped task's records land in the task it interrupted.
    Hooks compose: each registration adds one.  Register at module
    initialisation, before any pool runs tasks. *)
val add_help_context : (unit -> unit -> unit) -> unit

(** Open/close the recording gate.  Closed (the default), submit and
    worker paths pay a single boolean test and make no clock reads —
    the jobs=1 oracle never builds a pool, and a jobs>1 run with the
    gate closed is observationally identical to one without metrics. *)
val set_metrics : bool -> unit

type stats = {
  st_jobs : int;
  st_submitted : int;  (** tasks handed to {!submit} *)
  st_completed : int;
  st_inline : int;
      (** always 0: nested submits enqueue (kept for the record format) *)
  st_workers : (int * int * float) list;
      (** per domain slot: (id, tasks run, busy microseconds).  Ids
          [0 .. jobs-2] are the workers; id [jobs-1] is the caller slot,
          the tasks that non-worker domains ran while awaiting.  Busy
          time is the wall time of a slot's outermost tasks, so a task
          helped inside another is counted once; idle time is
          [elapsed - busy] at the consumer's choice of horizon *)
  st_queue_wait : Histogram.t;  (** enqueue -> dequeue, microseconds *)
  st_task_run : Histogram.t;  (** dequeue -> completion, microseconds *)
  st_since_us : float;  (** clock reading at pool creation *)
}

(** Snapshot of a pool's counters and latency histograms (histograms
    are copies; safe to read while workers run). *)
val stats : t -> stats

(** [stats] of the running global pool, without creating one. *)
val global_stats : unit -> stats option
