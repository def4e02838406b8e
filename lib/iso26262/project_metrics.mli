(** One-pass metric extraction over a parsed project.

    Computes every quantity the assessment, the observations and the
    benchmark harness need; consumers read fields instead of re-walking
    hundreds of kLOC of ASTs. *)

type module_metrics = {
  modname : string;
  complexity : Metrics.Complexity.module_summary;
  loc : Metrics.Loc_metrics.counts;
  globals : int;  (** mutable (non-const, non-extern) globals *)
  multi_exit_frac : float;
  gotos : int;
  dataflow : Dataflow.Analyses.totals;
      (** flow-sensitive counts (unreachable regions, dead stores,
          uninitialized reads, propagated constant conditions) over the
          module's defined functions *)
}

type t = {
  modules : module_metrics list;
  total_loc : int;  (** physical (non-blank) lines *)
  total_functions : int;  (** defined functions *)
  over10 : int;  (** functions with cyclomatic complexity > 10 *)
  over20 : int;
  over50 : int;
  explicit_casts : int;
  implicit_conversions : int;
  globals_total : int;
  uninit_findings : Metrics.Uninit.finding list;
  shadowing_count : int;
  duplicate_globals : int;
  gotos_total : int;
  recursive_functions : string list;  (** qualified names *)
  dyn_alloc_sites : int;  (** malloc/new/cudaMalloc call sites *)
  pointer_usage : Metrics.Pointers.usage;
  multi_exit_frac : float;
  param_validation_ratio : float;  (** fraction of pointer params null-checked *)
  ignored_returns : int;
  assertions : int;
  style_findings : int;
  style_per_kloc : float;
  naming_violations : int;
  architecture : Metrics.Architecture.component list;
  namespace_depth : int;
  cuda : Cudasim.Census.t;
  misra : Misra.Registry.report;
  dataflow : Dataflow.Analyses.totals;  (** project-wide sum of the per-module counts *)
  interproc : Interproc.Summary.t;
      (** whole-program summaries: recursion cycles, call/stack depth,
          global coupling, cross-call uninit flows *)
}

(** Extract everything from a parsed project.  Cost is a few passes over
    each AST; ~1 s for the paper-scale 228k LOC corpus. *)
val of_parsed : Cfront.Project.parsed -> t

(** The two heavyweight phases nothing else in the record depends on,
    exposed standalone so the pipelined audit can fan them out to pool
    workers concurrently with the core metric walk. *)

val misra_of_parsed : Cfront.Project.parsed -> Misra.Registry.report

val module_dataflow_of_parsed :
  Cfront.Project.parsed -> (string * Dataflow.Analyses.totals) list

(** [of_parsed_deferred ~misra ~module_dataflow parsed] runs the core
    metric walk first and only then forces [module_dataflow] (per-module
    dataflow totals; a module missing from them falls back to an inline
    solve) and, last, [misra] — so a pipelined caller whose thunks await
    pool futures keeps working until the join. *)
val of_parsed_deferred :
  misra:(unit -> Misra.Registry.report) ->
  module_dataflow:(unit -> (string * Dataflow.Analyses.totals) list) ->
  Cfront.Project.parsed ->
  t

(** {!of_parsed_deferred} with the dataflow totals already computed.
    [of_parsed] is exactly this with the two phases computed
    sequentially first. *)
val of_parsed_with :
  misra:(unit -> Misra.Registry.report) ->
  module_dataflow:(string * Dataflow.Analyses.totals) list ->
  Cfront.Project.parsed ->
  t

val find_module : t -> string -> module_metrics option
