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

    Every task runs in its own {e task context}: each module that keeps
    per-domain "current task" state registers it once with
    {!add_task_context}, every task records into fresh state of its
    own wherever it runs, and the first {!await} of its future merges
    those records into the sink active on the awaiting domain.  The
    telemetry counters and histograms and the provenance findings merge
    this way; no call site collects or absorbs them by hand.

    Concurrency policy for the analysis pipeline:
    - parallelism is *configuration*, never semantics: every parallel
      call site must have an exact sequential fallback at [jobs = 1]
      (the oracle the differential tests compare against; see
      {!parallel_map});
    - tasks must not mutate shared state — results are merged on the
      caller in input order, and records through the task contexts.

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
    so a saturated pool still drains.  The task runs inside a fresh
    context of every module registered with {!add_task_context}, both
    when a worker runs it and when a domain helps with it inside
    {!await}. *)
val submit : t -> (unit -> 'a) -> 'a future

(** Return the task's result, running queued tasks (any task, in queue
    order) on the calling domain until it is available; sleep only while
    the queue is empty.  The first [await] of a future also merges the
    task's records (its task contexts' merges) into the sink active on
    the awaiting domain, exactly once: awaiting again returns the result
    without merging anything, and a future nobody awaits never merges.
    The merge happens for a failed task too, before the task's exception
    is re-raised (with its original backtrace), whichever domain ran
    it. *)
val await : 'a future -> 'a

(** Await every future, returning results in submission order — the
    fan-in half of the future-per-phase pattern (the pipelined audit
    submits independent phases from the main domain and joins here).
    Re-raises the first listed failure. *)
val await_all : 'a future list -> 'a list

(** Register per-task state: the task-context rule.  Every module that
    keeps per-domain "current task" state in [Domain.DLS] (a buffer a
    task's records go into, a clock a timed region reads) registers it
    here, once, at module initialisation, before any pool runs tasks;
    [make check-task-state] fails when [Domain.DLS.new_key] appears
    under [lib/] outside this module, Telemetry and Provenance.
    [enter ()] is called on the running domain just before each task
    and installs fresh state; calling its result just after the task
    restores the state it replaced and returns the [merge] thunk, which
    the first {!await} of the task's future calls on the awaiting
    domain to feed the task's records into whatever sink is active
    there.  So a task never records into the state of a task it
    interrupted, and its records reach the sink only through its own
    future: {e every future must be awaited for its records to merge}.
    Contexts are entered in turn and left in reverse. *)
val add_task_context : (unit -> unit -> unit -> unit) -> unit

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

(** {!map_chunked} over {!global}.  When the default is 1 job this
    {e is} [List.map f xs], recording straight into the active sinks —
    the exact sequential oracle the differential tests compare against.
    Otherwise each chunk's records merge on the calling domain as its
    future is awaited, in input order, so the merged sink state equals
    the sequential one. *)
val parallel_map : ?chunk_size:int -> ('a -> 'b) -> 'a list -> 'b list

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
