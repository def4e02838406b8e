(** Structured provenance for analysis results: the third observability
    pillar next to tracing (spans) and the flight recorder (metrics).

    Every finding an analysis produces — a MISRA violation, a dataflow
    fact, an interprocedural conclusion, a coverage gap, a metric
    threshold breach — is recorded here as a {!finding}: a stable
    content-derived identifier plus a {e witness chain}, the ordered
    list of concrete facts (source locations, dataflow facts, call
    chains, covering scenarios) that justify the finding.  The journal
    is what lets a reviewer audit the auditor: [adcheck --evidence]
    exports it as [adcheck-evidence/1] JSONL and [adcheck explain]
    renders one finding's why-chain with source context.

    {b Determinism.}  The journal is part of the work tier: its exported
    bytes must be identical at every [--jobs] value.  Two mechanisms
    guarantee that.  First, every pool task records into a buffer of its
    own, registered once as a task context
    ({!Util.Pool.add_task_context}, the same rule the telemetry counters
    and histograms follow), and the first await of the task's future
    merges the buffer into the awaiting domain's active sink; a task
    never records into the buffer of a task it interrupted.  Second,
    {!findings} returns the journal in a canonical order (sorted by
    content, deduplicated by id), so the order in which futures are
    awaited cannot perturb the export.  Recording the same finding twice
    is harmless by construction: equal content means equal id, and the
    journal deduplicates. *)

(** One link of a witness chain: a labelled fact, optionally anchored to
    a source location. *)
type step = {
  w_label : string;  (** e.g. "decl", "use", "call", "cfg", "scenario" *)
  w_loc : Cfront.Loc.t option;
  w_detail : string;
}

type finding = {
  f_id : string;  (** stable content-derived id, e.g. [F-1a2b3c4d5e6f7081] *)
  f_kind : string;  (** "misra" | "dataflow" | "interproc" | "coverage" | "metric" *)
  f_analysis : string;  (** rule id or analysis name *)
  f_loc : Cfront.Loc.t option;  (** primary location, when one exists *)
  f_message : string;
  f_witness : step list;  (** never empty for recorded findings *)
}

(** Build a step; [detail] is a format string. *)
val step : ?loc:Cfront.Loc.t -> string -> ('a, unit, string, step) format4 -> 'a

(** Build a finding; the id is derived from the full content (kind,
    analysis, location, message and every witness step), so equal
    content always yields an equal id across runs, jobs values and
    processes. *)
val make :
  kind:string ->
  analysis:string ->
  ?loc:Cfront.Loc.t ->
  message:string ->
  witness:step list ->
  unit ->
  finding

(* ------------------------------------------------------------------ *)
(* The journal sink                                                    *)
(* ------------------------------------------------------------------ *)

(** Append to the journal (the buffer of the innermost {!collect} or
    pool task running on this domain, the process-global sink
    otherwise).  Also bumps the ["provenance.findings.<kind>"]
    telemetry counter. *)
val record : finding -> unit

(** [collect f] runs [f] with a fresh per-domain buffer installed and
    returns its findings in record order, without touching the active
    sink.  Buffers nest: an inner [collect] shadows the outer one, and
    the findings of pool tasks that [f] submits and awaits merge into
    it.  Parallel work needs no [collect]: pool tasks merge through
    their futures. *)
val collect : (unit -> 'a) -> 'a * finding list

(** Feed collected findings into the active sink (outer buffer or the
    global journal), in order. *)
val absorb : finding list -> unit

(** [memo c ?owner ~kind ~key f] is {!Cache.memo} for a computation
    that records findings: a miss runs [f] under {!collect} and stores
    the result together with its findings; a hit replays the stored
    findings.  Either way the findings reach the active sink, so the
    evidence journal is byte-identical whether the value was computed
    or replayed.  The stored payload is [(value, findings)]. *)
val memo :
  Cache.t -> ?owner:string -> kind:string -> key:string -> (unit -> 'a) -> 'a

(** Clear the global journal (buffers are unaffected). *)
val reset : unit -> unit

(** The journal in canonical order: sorted by (kind, analysis, location,
    message, id), deduplicated by id.  This is the export order.

    {b Cost.}  One sort per journal state: the first call after the
    global journal changes sorts it (keys built once per finding,
    O(n log n) string comparisons) and remembers the result; later calls
    return that same list, physically, until {!record}, {!absorb} (or a
    pool task's findings merging at its await) or {!reset} changes the
    global journal again.  {!journal}, {!write_journal} and {!find}
    share the remembered list.  Recording into a {!collect} or task
    buffer does not invalidate it. *)
val findings : unit -> finding list

(** Look up by exact id, or by a unique id prefix of at least 4
    characters, in {!findings} (a linear scan; no re-sort).  [Error]
    explains the failure (unknown / ambiguous). *)
val find : string -> (finding, string) result

(* ------------------------------------------------------------------ *)
(* adcheck-evidence/1                                                  *)
(* ------------------------------------------------------------------ *)

(** The journal as [adcheck-evidence/1] JSONL: a header line carrying
    the schema and finding count, then one canonical JSON object per
    finding.  Byte-identical at every [--jobs] value under the tick
    clock.  Costs one pass over {!findings} (no sort when it is already
    remembered): every field is escaped straight into one buffer sized
    up front, with no per-finding intermediate string. *)
val journal : unit -> string

(** Write {!journal}'s bytes to [path], streamed one finding at a time
    through a reused buffer, so the whole journal is never held in
    memory; the file is closed on every exit path.
    @raise Sys_error as [open_out_bin] does. *)
val write_journal : path:string -> unit -> unit

(** Render one finding's full why-chain as human-readable text.
    [source] maps a file path to its content; when it returns [Some],
    witness locations are shown with a source excerpt and caret. *)
val explain : ?source:(string -> string option) -> finding -> string
