(** Dependency-free instrumentation: monotonic-clock spans, counters,
    gauges, histograms, runtime (GC/pool) telemetry, and exporters —
    the flight recorder.

    The library keeps one process-global, mutex-guarded sink.  All
    recording entry points are no-ops until {!set_enabled}[ true], so
    instrumented hot paths pay a single boolean test when telemetry is
    off.  Three exporters read the sink: {!chrome_trace} emits Chrome
    trace-event JSON (loadable in [chrome://tracing] / Perfetto),
    {!metrics_json} emits the machine-readable [adcheck-metrics/1]
    record ([adcheck bench-diff] consumes it), and {!render_stats}
    prints summary tables via {!Util.Table}.

    Metric names split into two tiers.  Work-tier data (everything not
    prefixed ["pool."], ["gc."] or ["phase."]) must be byte-identical
    across [--jobs] values under the tick clock — that is the
    differential-testing oracle.  Runtime-tier data legitimately varies
    with scheduling and lives only in the "runtime" section of the
    metrics export.

    The clock is pluggable so tests can make every timestamp
    deterministic ({!install_tick_clock}). *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(** Current time in microseconds from the active clock. *)
val now_us : unit -> float

(** Install a clock returning microseconds (monotonically
    non-decreasing).  Microseconds, not seconds: the tick clock's small
    integer readings subtract exactly, so a one-tick region is exactly
    one tick on every domain. *)
val set_clock : (unit -> float) -> unit

(** Deterministic test clock: each reading advances by [step_us]
    (default 1.0) starting from 0 — per domain.  Giving every domain its
    own tick counter makes a timed region's duration a pure function of
    the clock reads inside the region on its own domain, so
    attributed-timing histogram samples are identical at every [--jobs]
    value.  Spans get an independent tick stream, so adding or removing
    a span never changes what a timed region measures.  Every pool task
    has its work ticks rewound afterwards (the telemetry task context,
    see {!Util.Pool.add_task_context}), so a region awaiting a fan-out
    never counts the reads of whatever queued tasks its domain happened
    to help with. *)
val install_tick_clock : ?step_us:float -> unit -> unit

(** Restore the default wall clock. *)
val use_wall_clock : unit -> unit

(* ------------------------------------------------------------------ *)
(* Sink control                                                        *)
(* ------------------------------------------------------------------ *)

(** Opens/closes the sink; also mirrors the switch into
    {!Util.Pool.set_metrics}, so pool instrumentation records exactly
    when the flight recorder does. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Drop every recorded event, counter, gauge, histogram and GC phase
    record (leaves the enabled flag and clock untouched). *)
val reset : unit -> unit

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type attr = string * string

(** An open span handle; {!end_span} closes it.  Handles of a disabled
    sink are inert. *)
type span

val start_span : ?cat:string -> ?attrs:attr list -> string -> span
val add_attr : span -> string -> string -> unit
val end_span : ?attrs:attr list -> span -> unit

(** [with_span name f] runs [f] inside a span; the span is closed even
    if [f] raises. *)
val with_span : ?cat:string -> ?attrs:attr list -> string -> (unit -> 'a) -> 'a

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

val incr : ?by:int -> string -> unit
val add : string -> int -> unit

val set_gauge : string -> float -> unit

(** Keep the maximum of all reported values. *)
val max_gauge : string -> float -> unit

(* ------------------------------------------------------------------ *)
(* Histograms and attributed timing                                    *)
(* ------------------------------------------------------------------ *)

(** Record a sample into the named {!Util.Histogram} (buffered in the
    running pool task's own sink, else the global sink).  Use
    integer-valued samples for work-tier metrics so the float [sum]
    stays exact under any merge association. *)
val observe : string -> float -> unit

(** [timed name f] runs [f] and records its duration (microseconds from
    the active clock) as a sample of histogram [name] — the attributed
    per-rule / per-function / per-scenario timing hook.  Place timed
    regions innermost (inside spans): under the tick clock a region with
    no nested clock reads measures exactly one tick on any domain, so
    the samples are jobs-independent. *)
val timed : string -> (unit -> 'a) -> 'a

(** GC cost of a named phase: deltas of [Gc.quick_stat] around the
    body, summed when the phase repeats. *)
type gc_delta = {
  gd_minor_words : float;
  gd_promoted_words : float;
  gd_major_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_compactions : int;
}

(** [gc_phase name f] runs [f], accumulating its GC delta under [name]
    and its wall time as a ["phase.<name>_us"] histogram sample.  Both
    are runtime-tier (excluded from the cross-jobs oracle): phase wall
    time depends on how the phases overlap on the pool's domains. *)
val gc_phase : string -> (unit -> 'a) -> 'a

(** Recorded GC phases, sorted by name. *)
val gc_phases : unit -> (string * gc_delta) list

(** All histograms (copies), sorted by name. *)
val histograms : unit -> (string * Util.Histogram.t) list

(** One histogram by exact name (a copy). *)
val histogram : string -> Util.Histogram.t option

(** True for runtime-tier metric names (["pool."], ["gc."] or
    ["phase."] prefixed): excluded from the deterministic sections of
    {!metrics_json}. *)
val is_runtime_metric : string -> bool

(* ------------------------------------------------------------------ *)
(* Reading the sink                                                    *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_us : float;
  ev_dur_us : float;
  ev_depth : int;
      (** spans open on the same domain when this one opened: depth
          counts per domain, so spans that overlap on two domains never
          inflate each other's depth *)
  ev_tid : int;
      (** domain id the span ran on.  Every span is recorded, whichever
          domain runs it, so a [--jobs N] trace holds the same spans as
          a [--jobs 1] trace; the pipelined audit phases and the
          per-rule, per-file and per-scenario tasks show on their
          domains' rows, overlapping in time *)
  ev_attrs : attr list;
}

(** Completed spans, sorted by start time then depth (parents first). *)
val events : unit -> event list

val counter : string -> int

(** All counters, sorted by name. *)
val counters : unit -> (string * int) list

(** Snapshot/diff for attributing counters to a region of the run (the
    bench harness snapshots around each experiment so one experiment's
    JSON record never absorbs counters contributed by another). *)
type counter_snapshot

val snapshot_counters : unit -> counter_snapshot

(** Counters that changed since the snapshot, with their deltas,
    sorted by name. *)
val counters_since : counter_snapshot -> (string * int) list

val gauges : unit -> (string * float) list

(** Counters under [prefix], prefix stripped, largest first, top [n]. *)
val top_counters : prefix:string -> int -> (string * int) list

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(** Chrome trace-event JSON: complete ("ph":"X") events with timestamps
    rebased to the earliest span and sorted by (ts, tid, name) so equal
    workloads serialize identically; counters and gauges ride along
    under "otherData". *)
val chrome_trace : unit -> string

val write_chrome_trace : path:string -> unit

(** The [adcheck-metrics/1] record: schema tag, work-tier counters and
    histograms (deterministic across [--jobs] under the tick clock),
    and — unless [runtime:false] — a "runtime" section with the jobs
    value, gauges, runtime-tier histograms, per-phase GC deltas and
    pool stats.  [runtime:false] is the byte-comparable differential
    oracle. *)
val metrics_json : ?runtime:bool -> unit -> string

val write_metrics : ?runtime:bool -> path:string -> unit -> unit

(** Per-name aggregation: (name, count, total_us, max_us), largest
    total first. *)
val span_summary : unit -> (string * int * float * float) list

(** Summary tables: span aggregation, counters, histograms (hottest
    total first — the "which rule/scenario is hot" view), interpreter
    hot-function profile, gauges — empty tables are omitted. *)
val stats_tables : unit -> Util.Table.t list

val render_stats : unit -> string

(** JSON string escaping (shared with the bench JSON writer). *)
val json_escape : string -> string
