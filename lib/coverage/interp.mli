(** Interpreter for the C/C++/CUDA subset with coverage hooks.

    Executes parsed translation units directly.  CUDA kernels launched
    with [f<<<grid, block>>>(args)] run on the CPU, sequentially over the
    grid with [threadIdx]/[blockIdx] bound per iteration — the cuda4cpu
    approach the paper uses to measure GPU code coverage with CPU tooling.

    Memory is cell-addressed and checked: out-of-bounds and
    use-after-free accesses abort the run with a memory fault, which the
    fault-injection harness exploits as a dynamic defensive-programming
    probe. *)

exception Runtime_error of string * Cfront.Loc.t
exception Step_limit_exceeded

(** Control-flow signals.  Exposed so the bytecode engine ({!Exec}) can
    share the interpreter's exception protocol: a compiled activation
    raises and catches exactly these, which is what keeps cross-engine
    behaviour (uncaught throws, stray gotos) byte-identical. *)
exception Return_signal of Value.t
exception Break_signal
exception Continue_signal
exception Goto_signal of string
exception Cxx_throw of Value.t

(** Event hooks fired during execution; the {!Collector} aggregates them
    into coverage reports. *)
type hooks = {
  on_stmt : int -> unit;  (** executable statement id *)
  on_decision : int -> (int * bool option) list -> bool -> unit;
      (** decision eid, (condition eid, value-if-evaluated) vector, outcome *)
  on_switch : int -> int -> unit;  (** switch sid, clause index taken *)
  on_call : string -> unit;  (** qualified function name *)
  on_kernel_launch : string -> grid:int -> block:int -> unit;
  on_function_stmt : string -> unit;
      (** qualified name of the enclosing function, fired once per
          executed statement — drives the telemetry hot-function
          profile *)
}

val null_hooks : hooks

(** [telemetry_hooks ?base ()] layers global-telemetry recording
    (statement / call / kernel-launch counters, per-function statement
    counts under ["interp.fn."]) over [base].  Returns [base] unchanged
    when telemetry is disabled at construction time. *)
val telemetry_hooks : ?base:hooks -> unit -> hooks

(** Flattened struct layout: field name -> (cell offset, field type). *)
type layout = {
  l_size : int;
  l_fields : (string * (int * Cfront.Ast.ctype)) list;
}

(** Interpreter state: store, globals, functions, struct layouts.  The
    record is concrete because the bytecode engine ({!Compile}/{!Exec})
    executes against the {e same} environment type — same memory, same
    symbol tables, same hooks, same step counter — so the two engines are
    observationally interchangeable. *)
type env = {
  mem : Memory.t;
  globals : (string, Value.ptr * Cfront.Ast.ctype) Hashtbl.t;
  funcs : (string, Cfront.Ast.func) Hashtbl.t;
  layouts : (string, layout) Hashtbl.t;
  enums : (string, int64) Hashtbl.t;
  hooks : hooks;
  output : Buffer.t;
  mutable steps : int;
  max_steps : int;
  mutable cuda_dims : (string * int64) list;
  mutable rand_state : int64;
  mutable diagnostics : string list;
  mutable cur_fn : string;
}

(** A call frame: name -> (cell, declared type), newest binding first.
    Bindings are pushed and never popped (block scoping is not modelled),
    which is exactly what makes the bytecode engine's one-slot-per-name
    locals equivalent to the assoc list. *)
type frame = { mutable vars : (string * (Value.ptr * Cfront.Ast.ctype)) list }

(** [create ()] makes a fresh environment.  [max_steps] bounds total
    evaluation steps across all runs in this environment (default 5e7). *)
val create : ?hooks:hooks -> ?max_steps:int -> unit -> env

(** Count one evaluation step against [env.max_steps].  The tree-walker
    ticks once per visited AST node; the bytecode engine ticks once per
    dispatched instruction, so [env.steps] doubles as the dispatch
    counter the `compile` bench compares across engines. *)
val tick : env -> Cfront.Loc.t -> unit

(** Shared semantic helpers (cell sizing, value conversion, arithmetic,
    symbol lookup).  {!Exec} calls these rather than reimplementing them
    so any semantic fix lands in both engines at once. *)
val size_of : env -> Cfront.Ast.ctype -> int

val strip_const : Cfront.Ast.ctype -> Cfront.Ast.ctype
val pointee : env -> Cfront.Ast.ctype -> Cfront.Ast.ctype
val default_value : Cfront.Ast.ctype -> Value.t
val convert_to : Cfront.Ast.ctype -> Value.t -> Value.t

val arith_binop :
  env -> Cfront.Ast.binop -> Value.t -> Value.t -> Cfront.Loc.t -> Value.t

val cuda_builtin_names : string list

(** Frame-then-globals lookup with the namespace-suffix fallback. *)
val find_var :
  env -> frame -> string -> (Value.ptr * Cfront.Ast.ctype) option

(** Exact-name-then-namespace-suffix function resolution. *)
val resolve_func : env -> string -> Cfront.Ast.func option

val builtin_ctx : env -> frame -> Builtins.ctx

(** Load a unit's records, enums, globals and functions into the
    environment (global initializers run immediately). *)
val load_tu : env -> Cfront.Ast.tu -> unit

(** [run env tus ~entry ~args] loads [tus] then calls [entry].  Returns
    the entry's return value, or a diagnostic for runtime errors, memory
    faults, uncaught C++ exceptions, or step-limit exhaustion.  An
    environment survives errors and can run further entry points.
    Raises [Invalid_argument] if two distinct units of [tus] have
    overlapping id ranges ({!Cfront.Ast.check_disjoint_ids}). *)
val run :
  env ->
  Cfront.Ast.tu list ->
  entry:string ->
  args:Value.t list ->
  (Value.t, string) result

(** [run_entries env ~entries] calls each entry in order in the same
    (already loaded) environment, pairing each with its result.  A
    failing entry does not stop the rest — the fault-injection and
    gap-probe scenarios rely on the coverage accumulated before a
    fault. *)
val run_entries :
  env -> entries:string list -> (string * (Value.t, string) result) list

(** Everything the program printed via printf/puts so far. *)
val output : env -> string
