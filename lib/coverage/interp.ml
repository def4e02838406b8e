(** Interpreter for the C/C++/CUDA subset with coverage hooks.

    Executes parsed translation units directly.  CUDA kernels launched
    with [f<<<grid, block>>>(args)] are run on the CPU, sequentially over
    the grid — the cuda4cpu trick the paper uses to measure GPU code
    coverage with CPU tooling.

    Coverage hooks fire on every executed statement, on every boolean
    decision (with the full condition vector, for MC/DC), on every switch
    dispatch, and on every function entry. *)

exception Runtime_error of string * Cfront.Loc.t
exception Step_limit_exceeded

(* Internal control-flow signals. *)
exception Return_signal of Value.t
exception Break_signal
exception Continue_signal
exception Goto_signal of string
exception Cxx_throw of Value.t
exception Exit_loop
exception Exit_block

type hooks = {
  on_stmt : int -> unit;
  on_decision : int -> (int * bool option) list -> bool -> unit;
      (** decision eid, (condition eid, outcome-if-evaluated) vector, decision outcome *)
  on_switch : int -> int -> unit;  (** switch sid, clause index taken *)
  on_call : string -> unit;  (** qualified function name *)
  on_kernel_launch : string -> grid:int -> block:int -> unit;
  on_function_stmt : string -> unit;
      (** qualified name of the function executing each statement; the
          telemetry hot-function profile aggregates these *)
}

let null_hooks =
  {
    on_stmt = (fun _ -> ());
    on_decision = (fun _ _ _ -> ());
    on_switch = (fun _ _ -> ());
    on_call = (fun _ -> ());
    on_kernel_launch = (fun _ ~grid:_ ~block:_ -> ());
    on_function_stmt = (fun _ -> ());
  }

(** Wrap [base] so the interpreter also feeds the global telemetry sink:
    statement/call/kernel-launch counters plus per-function statement
    counts under "interp.fn." (the hot-function profile).  When
    telemetry is disabled at construction time, [base] is returned
    unchanged and the interpreter pays nothing. *)
let telemetry_hooks ?(base = null_hooks) () =
  if not (Telemetry.enabled ()) then base
  else
    {
      on_stmt =
        (fun sid ->
          Telemetry.incr "interp.stmts";
          base.on_stmt sid);
      on_decision =
        (fun eid conds outcome ->
          Telemetry.incr "interp.decisions";
          base.on_decision eid conds outcome);
      on_switch = base.on_switch;
      on_call =
        (fun name ->
          Telemetry.incr "interp.calls";
          base.on_call name);
      on_kernel_launch =
        (fun name ~grid ~block ->
          Telemetry.incr "interp.kernel_launches";
          Telemetry.add "interp.kernel_threads" (grid * block);
          base.on_kernel_launch name ~grid ~block);
      on_function_stmt =
        (fun fn ->
          Telemetry.incr ("interp.fn." ^ fn);
          base.on_function_stmt fn);
    }

type layout = {
  l_size : int;
  l_fields : (string * (int * Cfront.Ast.ctype)) list;  (** name -> offset, type *)
}

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
  mutable cuda_dims : (string * int64) list;  (** threadIdx.x etc. during kernel runs *)
  mutable rand_state : int64;
  mutable diagnostics : string list;
  mutable cur_fn : string;  (** qualified name of the executing function *)
}

type frame = { mutable vars : (string * (Value.ptr * Cfront.Ast.ctype)) list }

let tick env loc =
  env.steps <- env.steps + 1;
  if env.steps > env.max_steps then begin
    env.diagnostics <-
      Printf.sprintf "step limit at %s" (Cfront.Loc.to_string loc) :: env.diagnostics;
    raise Step_limit_exceeded
  end

(* ------------------------------------------------------------------ *)
(* Types and layouts                                                   *)
(* ------------------------------------------------------------------ *)

let rec size_of env (ty : Cfront.Ast.ctype) =
  match ty with
  | Cfront.Ast.Tvoid -> 0
  | Cfront.Ast.Tbool | Cfront.Ast.Tchar | Cfront.Ast.Tint _ | Cfront.Ast.Tfloat
  | Cfront.Ast.Tdouble | Cfront.Ast.Tptr _ | Cfront.Ast.Tref _ | Cfront.Ast.Tauto -> 1
  | Cfront.Ast.Tconst t -> size_of env t
  | Cfront.Ast.Tarray (t, Some n) -> n * size_of env t
  | Cfront.Ast.Tarray (_, None) -> 1
  | Cfront.Ast.Tnamed name ->
    (match Hashtbl.find_opt env.layouts name with
     | Some l -> l.l_size
     | None -> 1)
  | Cfront.Ast.Ttemplate _ -> 1

let rec strip_const = function
  | Cfront.Ast.Tconst t | Cfront.Ast.Tref t -> strip_const t
  | t -> t

let pointee env ty =
  match strip_const ty with
  | Cfront.Ast.Tptr t -> t
  | Cfront.Ast.Tarray (t, _) -> t
  | _ ->
    ignore env;
    Cfront.Ast.int_t

let layout_of_record env (r : Cfront.Ast.record) =
  let fields = ref [] in
  let off = ref 0 in
  List.iter
    (fun ((_ : Cfront.Ast.access), (d : Cfront.Ast.var_decl)) ->
      fields := (d.Cfront.Ast.v_name, (!off, d.Cfront.Ast.v_type)) :: !fields;
      off := !off + size_of env d.Cfront.Ast.v_type)
    r.Cfront.Ast.r_fields;
  { l_size = Stdlib.max 1 !off; l_fields = List.rev !fields }

let default_value ty =
  match strip_const ty with
  | Cfront.Ast.Tfloat | Cfront.Ast.Tdouble -> Value.Vfloat 0.0
  | Cfront.Ast.Tbool -> Value.Vbool false
  | Cfront.Ast.Tptr _ -> Value.Vnull
  | _ -> Value.Vint 0L

(* ------------------------------------------------------------------ *)
(* Environment construction                                            *)
(* ------------------------------------------------------------------ *)

let create ?(hooks = null_hooks) ?(max_steps = 50_000_000) () =
  {
    mem = Memory.create ();
    globals = Hashtbl.create 64;
    funcs = Hashtbl.create 64;
    layouts = Hashtbl.create 16;
    enums = Hashtbl.create 16;
    hooks;
    output = Buffer.create 256;
    steps = 0;
    max_steps;
    cuda_dims = [];
    rand_state = 0x2545F4914F6CDD1DL;
    diagnostics = [];
    cur_fn = "";
  }

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let arith_binop env op (a : Value.t) (b : Value.t) loc =
  let open Cfront.Ast in
  let fail msg = raise (Runtime_error (msg, loc)) in
  let int_op f =
    Value.Vint (f (Value.as_int a) (Value.as_int b))
  in
  let num_op fi ff =
    if Value.is_float a || Value.is_float b then
      Value.Vfloat (ff (Value.as_float a) (Value.as_float b))
    else Value.Vint (fi (Value.as_int a) (Value.as_int b))
  in
  let cmp_op fi ff =
    if Value.is_float a || Value.is_float b then
      Value.Vbool (ff (Value.as_float a) (Value.as_float b))
    else Value.Vbool (fi (Value.as_int a) (Value.as_int b))
  in
  match (op, a, b) with
  (* pointer arithmetic: stride is applied by the caller (eval of Index);
     raw pointer +/- moves whole cells of the pointee handled there too.
     Here we handle ptr +/- int directly in cells of unknown stride = 1;
     typed stride handled in eval. *)
  | Add, Value.Vptr p, _ -> Value.Vptr (Memory.shift p (Int64.to_int (Value.as_int b)))
  | Add, _, Value.Vptr p -> Value.Vptr (Memory.shift p (Int64.to_int (Value.as_int a)))
  | Sub, Value.Vptr p, Value.Vptr q ->
    if p.Value.block <> q.Value.block then fail "subtraction of unrelated pointers"
    else Value.Vint (Int64.of_int (p.Value.offset - q.Value.offset))
  | Sub, Value.Vptr p, _ -> Value.Vptr (Memory.shift p (-Int64.to_int (Value.as_int b)))
  | Eq, Value.Vptr p, Value.Vptr q -> Value.Vbool (p = q)
  | Eq, Value.Vptr _, Value.Vnull | Eq, Value.Vnull, Value.Vptr _ -> Value.Vbool false
  | Eq, Value.Vnull, Value.Vnull -> Value.Vbool true
  | Ne, Value.Vptr p, Value.Vptr q -> Value.Vbool (p <> q)
  | Ne, Value.Vptr _, Value.Vnull | Ne, Value.Vnull, Value.Vptr _ -> Value.Vbool true
  | Ne, Value.Vnull, Value.Vnull -> Value.Vbool false
  | Add, _, _ -> num_op Int64.add ( +. )
  | Sub, _, _ -> num_op Int64.sub ( -. )
  | Mul, _, _ -> num_op Int64.mul ( *. )
  | Div, _, _ ->
    if Value.is_float a || Value.is_float b then
      Value.Vfloat (Value.as_float a /. Value.as_float b)
    else if Value.as_int b = 0L then fail "integer division by zero"
    else Value.Vint (Int64.div (Value.as_int a) (Value.as_int b))
  | Mod, _, _ ->
    if Value.as_int b = 0L then fail "modulo by zero"
    else Value.Vint (Int64.rem (Value.as_int a) (Value.as_int b))
  | Shl, _, _ -> int_op (fun x y -> Int64.shift_left x (Int64.to_int y))
  | Shr, _, _ -> int_op (fun x y -> Int64.shift_right x (Int64.to_int y))
  | Band, _, _ -> int_op Int64.logand
  | Bor, _, _ -> int_op Int64.logor
  | Bxor, _, _ -> int_op Int64.logxor
  | Lt, _, _ -> cmp_op (fun x y -> Int64.compare x y < 0) ( < )
  | Gt, _, _ -> cmp_op (fun x y -> Int64.compare x y > 0) ( > )
  | Le, _, _ -> cmp_op (fun x y -> Int64.compare x y <= 0) ( <= )
  | Ge, _, _ -> cmp_op (fun x y -> Int64.compare x y >= 0) ( >= )
  | Eq, _, _ -> cmp_op (fun x y -> Int64.equal x y) (fun x y -> x = y)
  | Ne, _, _ -> cmp_op (fun x y -> not (Int64.equal x y)) (fun x y -> x <> y)
  | (Land | Lor | Comma), _, _ ->
    ignore env;
    fail "logical/comma operators handled elsewhere"

let convert_to ty (v : Value.t) =
  match strip_const ty with
  | Cfront.Ast.Tfloat | Cfront.Ast.Tdouble -> Value.Vfloat (Value.as_float v)
  | Cfront.Ast.Tint _ | Cfront.Ast.Tchar -> (
      match v with
      | Value.Vptr _ -> v  (* keep pointers intact through int casts *)
      | _ -> Value.Vint (Value.as_int v))
  | Cfront.Ast.Tbool -> Value.Vbool (Value.truthy v)
  | _ -> v

(* ------------------------------------------------------------------ *)
(* Variable lookup                                                     *)
(* ------------------------------------------------------------------ *)

let cuda_builtin_names = [ "threadIdx"; "blockIdx"; "blockDim"; "gridDim" ]

let find_var env frame name =
  match List.assoc_opt name frame.vars with
  | Some entry -> Some entry
  | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some entry -> Some entry
      | None ->
        (* try simple-name match for namespace-qualified globals *)
        Hashtbl.fold
          (fun key entry acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if Util.Strutil.ends_with ~suffix:("::" ^ name) key then Some entry
              else None)
          env.globals None)

let resolve_func env name =
  match Hashtbl.find_opt env.funcs name with
  | Some f -> Some f
  | None ->
    Hashtbl.fold
      (fun key f acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Util.Strutil.ends_with ~suffix:("::" ^ name) key then Some f else None)
      env.funcs None

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval env frame (e : Cfront.Ast.expr) : Value.t =
  fst (eval_typed env frame e)

and eval_typed env frame (e : Cfront.Ast.expr) : Value.t * Cfront.Ast.ctype =
  tick env e.Cfront.Ast.eloc;
  let loc = e.Cfront.Ast.eloc in
  match e.Cfront.Ast.e with
  | Cfront.Ast.Int_const v -> (Value.Vint v, Cfront.Ast.int_t)
  | Cfront.Ast.Float_const v -> (Value.Vfloat v, Cfront.Ast.Tdouble)
  | Cfront.Ast.Bool_const b -> (Value.Vbool b, Cfront.Ast.Tbool)
  | Cfront.Ast.Str_const s -> (Value.Vstr s, Cfront.Ast.Tptr Cfront.Ast.Tchar)
  | Cfront.Ast.Char_const c -> (Value.Vint (Int64.of_int (Char.code c)), Cfront.Ast.Tchar)
  | Cfront.Ast.Nullptr -> (Value.Vnull, Cfront.Ast.Tptr Cfront.Ast.Tvoid)
  | Cfront.Ast.Id name -> (
      (* CUDA dim pseudo-variables used bare (rare) *)
      match List.assoc_opt name env.cuda_dims with
      | Some v -> (Value.Vint v, Cfront.Ast.int_t)
      | None -> (
          match Hashtbl.find_opt env.enums name with
          | Some v -> (Value.Vint v, Cfront.Ast.int_t)
          | None -> (
              match find_var env frame name with
              | Some (p, ty) -> (
                  (* arrays decay to a pointer to their first cell *)
                  match strip_const ty with
                  | Cfront.Ast.Tarray (elem, _) -> (Value.Vptr p, Cfront.Ast.Tptr elem)
                  | Cfront.Ast.Tnamed _ -> (Value.Vptr p, ty)  (* struct value = its block *)
                  | _ -> (Memory.load env.mem p, ty))
              | None ->
                if name = "NULL" then (Value.Vnull, Cfront.Ast.Tptr Cfront.Ast.Tvoid)
                else raise (Runtime_error ("unbound identifier " ^ name, loc)))))
  | Cfront.Ast.Unary (op, a) -> eval_unary env frame op a loc
  | Cfront.Ast.Postfix (op, a) ->
    let p, ty = lvalue env frame a in
    let old = Memory.load env.mem p in
    let delta = match op with Cfront.Ast.Post_inc -> 1L | Cfront.Ast.Post_dec -> -1L in
    let nv =
      match old with
      | Value.Vptr q -> Value.Vptr (Memory.shift q (Int64.to_int delta))
      | Value.Vfloat f -> Value.Vfloat (f +. Int64.to_float delta)
      | v -> Value.Vint (Int64.add (Value.as_int v) delta)
    in
    Memory.store env.mem p nv;
    (old, ty)
  | Cfront.Ast.Binary (Cfront.Ast.Land, _, _) | Cfront.Ast.Binary (Cfront.Ast.Lor, _, _) ->
    (* a logical tree evaluated outside control position: still short-circuit *)
    let tbl = Hashtbl.create 4 in
    let outcome = eval_bool_tree env frame tbl e in
    (Value.Vbool outcome, Cfront.Ast.Tbool)
  | Cfront.Ast.Binary (Cfront.Ast.Comma, a, b) ->
    let _ = eval env frame a in
    eval_typed env frame b
  | Cfront.Ast.Binary (op, a, b) ->
    let va, ta = eval_typed env frame a in
    let vb, _ = eval_typed env frame b in
    (* typed pointer stride for ptr +/- int *)
    let result =
      match (op, va, vb) with
      | (Cfront.Ast.Add | Cfront.Ast.Sub), Value.Vptr p, _
        when not (match vb with Value.Vptr _ -> true | _ -> false) ->
        let stride = size_of env (pointee env ta) in
        let n = Int64.to_int (Value.as_int vb) * stride in
        Value.Vptr (Memory.shift p (if op = Cfront.Ast.Add then n else -n))
      | _ -> arith_binop env op va vb loc
    in
    let ty =
      match result with
      | Value.Vbool _ -> Cfront.Ast.Tbool
      | Value.Vfloat _ -> Cfront.Ast.Tdouble
      | Value.Vptr _ -> ta
      | _ -> Cfront.Ast.int_t
    in
    (result, ty)
  | Cfront.Ast.Assign (op, lhs, rhs) ->
    let p, ty = lvalue env frame lhs in
    let rv = eval env frame rhs in
    (* whole-struct assignment copies the block *)
    (match (strip_const ty, rv) with
     | Cfront.Ast.Tnamed name, Value.Vptr src when Hashtbl.mem env.layouts name ->
       Memory.copy env.mem ~src ~dst:p (size_of env ty)
     | _ -> ignore rv);
    (match (strip_const ty, rv) with
     | Cfront.Ast.Tnamed name, Value.Vptr _ when Hashtbl.mem env.layouts name ->
       (Value.Vptr p, ty)
     | _ ->
    let newv =
      match op with
      | Cfront.Ast.A_eq -> convert_to ty rv
      | _ ->
        let old = Memory.load env.mem p in
        let bop =
          match op with
          | Cfront.Ast.A_add -> Cfront.Ast.Add
          | Cfront.Ast.A_sub -> Cfront.Ast.Sub
          | Cfront.Ast.A_mul -> Cfront.Ast.Mul
          | Cfront.Ast.A_div -> Cfront.Ast.Div
          | Cfront.Ast.A_mod -> Cfront.Ast.Mod
          | Cfront.Ast.A_shl -> Cfront.Ast.Shl
          | Cfront.Ast.A_shr -> Cfront.Ast.Shr
          | Cfront.Ast.A_and -> Cfront.Ast.Band
          | Cfront.Ast.A_or -> Cfront.Ast.Bor
          | Cfront.Ast.A_xor -> Cfront.Ast.Bxor
          | Cfront.Ast.A_eq -> assert false
        in
        convert_to ty (arith_binop env bop old rv loc)
    in
    Memory.store env.mem p newv;
    (newv, ty))
  | Cfront.Ast.Ternary (c, a, b) ->
    let tbl = Hashtbl.create 4 in
    let outcome = eval_bool_tree env frame tbl c in
    report_decision env tbl c outcome;
    if outcome then eval_typed env frame a else eval_typed env frame b
  | Cfront.Ast.Call (f, args) -> eval_call env frame f args loc
  | Cfront.Ast.Kernel_launch { kernel; grid; block; args } ->
    eval_kernel_launch env frame kernel grid block args loc
  | Cfront.Ast.Index (a, i) ->
    let p, elem_ty = index_ptr env frame a i in
    (match strip_const elem_ty with
     | Cfront.Ast.Tnamed _ | Cfront.Ast.Tarray _ -> (Value.Vptr p, elem_ty)
     | _ -> (Memory.load env.mem p, elem_ty))
  | Cfront.Ast.Member _ -> (
      match cuda_dim_member env e with
      | Some v -> (Value.Vint v, Cfront.Ast.int_t)
      | None ->
        let p, ty = lvalue env frame e in
        (match strip_const ty with
         | Cfront.Ast.Tnamed _ | Cfront.Ast.Tarray _ -> (Value.Vptr p, ty)
         | _ -> (Memory.load env.mem p, ty)))
  | Cfront.Ast.C_cast (ty, a) | Cfront.Ast.Cpp_cast (_, ty, a) ->
    let v = eval env frame a in
    (convert_to ty v, ty)
  | Cfront.Ast.Sizeof_type ty -> (Value.Vint (Int64.of_int (size_of env ty)), Cfront.Ast.int_t)
  | Cfront.Ast.Sizeof_expr a ->
    let _, ty = eval_typed env frame a in
    (Value.Vint (Int64.of_int (size_of env ty)), Cfront.Ast.int_t)
  | Cfront.Ast.New { ty; array_size; _ } ->
    let n =
      match array_size with
      | None -> 1
      | Some sz -> Int64.to_int (Value.as_int (eval env frame sz))
    in
    let p = Memory.alloc env.mem ~init:(default_value ty) (n * size_of env ty) in
    (Value.Vptr p, Cfront.Ast.Tptr ty)
  | Cfront.Ast.Delete { target; _ } ->
    (match eval env frame target with
     | Value.Vptr p -> Memory.free env.mem p
     | Value.Vnull -> ()
     | _ -> raise (Runtime_error ("delete of non-pointer", loc)));
    (Value.Vvoid, Cfront.Ast.Tvoid)
  | Cfront.Ast.Throw None -> raise (Cxx_throw (Value.Vint 0L))
  | Cfront.Ast.Throw (Some a) -> raise (Cxx_throw (eval env frame a))

and eval_unary env frame op a loc =
  match op with
  | Cfront.Ast.Neg -> (
      match eval_typed env frame a with
      | Value.Vfloat f, ty -> (Value.Vfloat (-.f), ty)
      | v, ty -> (Value.Vint (Int64.neg (Value.as_int v)), ty))
  | Cfront.Ast.Pos -> eval_typed env frame a
  | Cfront.Ast.Lnot -> (Value.Vbool (not (Value.truthy (eval env frame a))), Cfront.Ast.Tbool)
  | Cfront.Ast.Bnot -> (Value.Vint (Int64.lognot (Value.as_int (eval env frame a))), Cfront.Ast.int_t)
  | Cfront.Ast.Pre_inc | Cfront.Ast.Pre_dec ->
    let p, ty = lvalue env frame a in
    let old = Memory.load env.mem p in
    let delta = if op = Cfront.Ast.Pre_inc then 1L else -1L in
    let nv =
      match old with
      | Value.Vptr q -> Value.Vptr (Memory.shift q (Int64.to_int delta))
      | Value.Vfloat f -> Value.Vfloat (f +. Int64.to_float delta)
      | v -> Value.Vint (Int64.add (Value.as_int v) delta)
    in
    Memory.store env.mem p nv;
    (nv, ty)
  | Cfront.Ast.Deref -> (
      match eval_typed env frame a with
      | Value.Vptr p, ty ->
        let elem = pointee env ty in
        (match strip_const elem with
         | Cfront.Ast.Tnamed _ -> (Value.Vptr p, elem)
         | _ -> (Memory.load env.mem p, elem))
      | Value.Vnull, _ -> raise (Runtime_error ("null pointer dereference", loc))
      | _ -> raise (Runtime_error ("dereference of non-pointer", loc)))
  | Cfront.Ast.Addr_of ->
    let p, ty = lvalue env frame a in
    (Value.Vptr p, Cfront.Ast.Tptr ty)

and index_ptr env frame a i =
  let va, ta = eval_typed env frame a in
  let idx = Int64.to_int (Value.as_int (eval env frame i)) in
  match va with
  | Value.Vptr p ->
    let elem = pointee env ta in
    (Memory.shift p (idx * size_of env elem), elem)
  | Value.Vnull -> raise (Runtime_error ("index of null pointer", a.Cfront.Ast.eloc))
  | _ -> raise (Runtime_error ("index of non-pointer", a.Cfront.Ast.eloc))

and cuda_dim_member env (e : Cfront.Ast.expr) =
  match e.Cfront.Ast.e with
  | Cfront.Ast.Member { obj = { e = Cfront.Ast.Id base; _ }; arrow = false; field }
    when List.mem base cuda_builtin_names ->
    Some
      (Option.value ~default:0L (List.assoc_opt (base ^ "." ^ field) env.cuda_dims))
  | _ -> None

and lvalue env frame (e : Cfront.Ast.expr) : Value.ptr * Cfront.Ast.ctype =
  let loc = e.Cfront.Ast.eloc in
  match e.Cfront.Ast.e with
  | Cfront.Ast.Id name -> (
      match find_var env frame name with
      | Some (p, ty) -> (p, ty)
      | None -> raise (Runtime_error ("unbound identifier " ^ name, loc)))
  | Cfront.Ast.Unary (Cfront.Ast.Deref, a) -> (
      match eval_typed env frame a with
      | Value.Vptr p, ty -> (p, pointee env ty)
      | Value.Vnull, _ -> raise (Runtime_error ("null pointer dereference", loc))
      | _ -> raise (Runtime_error ("dereference of non-pointer", loc)))
  | Cfront.Ast.Index (a, i) -> index_ptr env frame a i
  | Cfront.Ast.Member { obj; arrow; field } ->
    let p, record_ty =
      if arrow then
        match eval_typed env frame obj with
        | Value.Vptr p, ty -> (p, pointee env ty)
        | Value.Vnull, _ -> raise (Runtime_error ("null -> access", loc))
        | _ -> raise (Runtime_error ("-> on non-pointer", loc))
      else lvalue env frame obj
    in
    let record_name =
      match strip_const record_ty with
      | Cfront.Ast.Tnamed n -> n
      | _ -> raise (Runtime_error ("member access on non-struct", loc))
    in
    (match Hashtbl.find_opt env.layouts record_name with
     | None -> raise (Runtime_error ("unknown struct " ^ record_name, loc))
     | Some l -> (
         match List.assoc_opt field l.l_fields with
         | None ->
           raise (Runtime_error (Printf.sprintf "no field %s in %s" field record_name, loc))
         | Some (off, fty) -> (Memory.shift p off, fty)))
  | Cfront.Ast.C_cast (ty, inner) | Cfront.Ast.Cpp_cast (_, ty, inner) ->
    (* a cast applied to an address, as in the cudaMalloc void-star idiom,
       used as an lvalue target *)
    let p, _ = lvalue env frame inner in
    (p, ty)
  | _ -> raise (Runtime_error ("expression is not an lvalue", loc))

(* Short-circuit evaluation of a decision tree, recording leaf outcomes. *)
and eval_bool_tree env frame tbl (e : Cfront.Ast.expr) =
  match e.Cfront.Ast.e with
  | Cfront.Ast.Binary (Cfront.Ast.Land, a, b) ->
    if eval_bool_tree env frame tbl a then eval_bool_tree env frame tbl b else false
  | Cfront.Ast.Binary (Cfront.Ast.Lor, a, b) ->
    if eval_bool_tree env frame tbl a then true else eval_bool_tree env frame tbl b
  | Cfront.Ast.Unary (Cfront.Ast.Lnot, a) -> not (eval_bool_tree env frame tbl a)
  | _ ->
    let v = Value.truthy (eval env frame e) in
    Hashtbl.replace tbl e.Cfront.Ast.eid v;
    v

and report_decision env tbl (cond : Cfront.Ast.expr) outcome =
  let leaves = Instrument.leaves_of cond in
  let vector = List.map (fun eid -> (eid, Hashtbl.find_opt tbl eid)) leaves in
  env.hooks.on_decision cond.Cfront.Ast.eid vector outcome

and eval_decision env frame (cond : Cfront.Ast.expr) =
  let tbl = Hashtbl.create 4 in
  let outcome = eval_bool_tree env frame tbl cond in
  report_decision env tbl cond outcome;
  outcome

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

and eval_call env frame fexpr args loc =
  match fexpr.Cfront.Ast.e with
  | Cfront.Ast.Id name -> (
      match Builtins.lookup name with
      | Some bfn ->
        let vals = eval_args_for_builtin env frame name args in
        (Builtins.apply bfn (builtin_ctx env frame) vals loc, Cfront.Ast.Tauto)
      | None -> (
          match resolve_func env name with
          | Some fn -> (call_function env fn (eval_call_args env frame fn args), fn.Cfront.Ast.f_ret)
          | None ->
            raise (Runtime_error ("call to undefined function " ^ name, loc))))
  | Cfront.Ast.Member { field; _ } -> (
      (* method-style call: resolve by simple name *)
      match resolve_func env field with
      | Some fn -> (call_function env fn (eval_call_args env frame fn args), fn.Cfront.Ast.f_ret)
      | None -> raise (Runtime_error ("call to undefined method " ^ field, loc)))
  | _ -> raise (Runtime_error ("call through non-identifier", loc))

(* assert needs its raw argument for the message; builtins otherwise take
   evaluated values *)
and eval_args_for_builtin env frame _name args =
  List.map (fun a -> eval env frame a) args

and eval_call_args env frame (fn : Cfront.Ast.func) args =
  (* reference parameters receive the address of their argument *)
  let params = fn.Cfront.Ast.f_params in
  List.mapi
    (fun i a ->
      let by_ref =
        match List.nth_opt params i with
        | Some p -> (
            match p.Cfront.Ast.p_type with Cfront.Ast.Tref _ -> true | _ -> false)
        | None -> false
      in
      if by_ref then
        let p, _ = lvalue env frame a in
        Value.Vptr p
      else eval env frame a)
    args

and call_function env (fn : Cfront.Ast.func) (arg_values : Value.t list) =
  env.hooks.on_call (Cfront.Ast.qualified_name fn);
  let caller_fn = env.cur_fn in
  env.cur_fn <- Cfront.Ast.qualified_name fn;
  Fun.protect ~finally:(fun () -> env.cur_fn <- caller_fn) @@ fun () ->
  let callee_frame = { vars = [] } in
  List.iteri
    (fun i (p : Cfront.Ast.param) ->
      let v = try List.nth arg_values i with _ -> default_value p.Cfront.Ast.p_type in
      let ty = p.Cfront.Ast.p_type in
      match (ty, v) with
      | Cfront.Ast.Tref inner, Value.Vptr ptr ->
        (* reference param: alias the caller's storage *)
        callee_frame.vars <- (p.Cfront.Ast.p_name, (ptr, inner)) :: callee_frame.vars
      | _ ->
      match (strip_const ty, v) with
      | Cfront.Ast.Tnamed _, Value.Vptr src ->
        (* struct by value: copy the block *)
        let size = size_of env ty in
        let dst = Memory.alloc env.mem size in
        Memory.copy env.mem ~src ~dst size;
        callee_frame.vars <- (p.Cfront.Ast.p_name, (dst, ty)) :: callee_frame.vars
      | _ ->
        let cell = Memory.alloc env.mem 1 in
        Memory.store env.mem cell (convert_to ty v);
        callee_frame.vars <- (p.Cfront.Ast.p_name, (cell, ty)) :: callee_frame.vars)
    fn.Cfront.Ast.f_params;
  match fn.Cfront.Ast.f_body with
  | None -> Value.Vvoid
  | Some body -> (
      try
        exec_stmt env callee_frame body;
        Value.Vvoid
      with Return_signal v -> v)

(* ------------------------------------------------------------------ *)
(* Kernel launches                                                     *)
(* ------------------------------------------------------------------ *)

and eval_kernel_launch env frame kernel grid block args loc =
  let name =
    match kernel.Cfront.Ast.e with
    | Cfront.Ast.Id n -> n
    | _ -> raise (Runtime_error ("kernel launch of non-identifier", loc))
  in
  let fn =
    match resolve_func env name with
    | Some f -> f
    | None -> raise (Runtime_error ("launch of undefined kernel " ^ name, loc))
  in
  let gridv = Int64.to_int (Value.as_int (eval env frame grid)) in
  let blockv = Int64.to_int (Value.as_int (eval env frame block)) in
  if gridv <= 0 || blockv <= 0 then
    raise (Runtime_error ("non-positive launch configuration", loc));
  env.hooks.on_kernel_launch (Cfront.Ast.qualified_name fn) ~grid:gridv ~block:blockv;
  let arg_values = eval_call_args env frame fn args in
  let saved = env.cuda_dims in
  (try
     for b = 0 to gridv - 1 do
       for t = 0 to blockv - 1 do
         env.cuda_dims <-
           [
             ("threadIdx.x", Int64.of_int t);
             ("blockIdx.x", Int64.of_int b);
             ("blockDim.x", Int64.of_int blockv);
             ("gridDim.x", Int64.of_int gridv);
             ("threadIdx.y", 0L); ("blockIdx.y", 0L);
             ("blockDim.y", 1L); ("gridDim.y", 1L);
           ];
         ignore (call_function env fn arg_values)
       done
     done
   with ex ->
     env.cuda_dims <- saved;
     raise ex);
  env.cuda_dims <- saved;
  (Value.Vvoid, Cfront.Ast.Tvoid)

(* ------------------------------------------------------------------ *)
(* Builtin context                                                     *)
(* ------------------------------------------------------------------ *)

and builtin_ctx env frame : Builtins.ctx =
  ignore frame;
  {
    Builtins.mem = env.mem;
    output = env.output;
    rand_state = (fun () -> env.rand_state);
    set_rand_state = (fun s -> env.rand_state <- s);
  }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and declare_local env frame (d : Cfront.Ast.var_decl) =
  let ty = d.Cfront.Ast.v_type in
  let size = Stdlib.max 1 (size_of env ty) in
  let p = Memory.alloc env.mem ~init:(default_value ty) size in
  (match d.Cfront.Ast.v_init with
   | Some init ->
     let v = eval env frame init in
     (match (strip_const ty, v) with
      | Cfront.Ast.Tnamed _, Value.Vptr src -> Memory.copy env.mem ~src ~dst:p (size_of env ty)
      | _ -> Memory.store env.mem p (convert_to ty v))
   | None -> ());
  frame.vars <- (d.Cfront.Ast.v_name, (p, ty)) :: frame.vars

and exec_block env frame stmts =
  (* executes a statement list, handling goto-to-label within this list *)
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let find_label l =
    let rec go i =
      if i >= n then None
      else
        match arr.(i).Cfront.Ast.s with
        | Cfront.Ast.Slabel (l', _) when l' = l -> Some i
        | _ -> go (i + 1)
    in
    go 0
  in
  let rec run i =
    if i < n then begin
      (try exec_stmt env frame arr.(i)
       with Goto_signal l -> (
           match find_label l with
           | Some j -> run j; raise Exit_block
           | None -> raise (Goto_signal l)));
      run (i + 1)
    end
  in
  try run 0 with Exit_block -> ()

and exec_stmt env frame (stmt : Cfront.Ast.stmt) =
  tick env stmt.Cfront.Ast.sloc;
  if Instrument.is_executable stmt then begin
    env.hooks.on_stmt stmt.Cfront.Ast.sid;
    if env.cur_fn <> "" then env.hooks.on_function_stmt env.cur_fn
  end;
  match stmt.Cfront.Ast.s with
  | Cfront.Ast.Sempty -> ()
  | Cfront.Ast.Sexpr e -> ignore (eval env frame e)
  | Cfront.Ast.Sdecl ds -> List.iter (declare_local env frame) ds
  | Cfront.Ast.Sblock stmts -> exec_block env frame stmts
  | Cfront.Ast.Sif { cond; then_; else_ } ->
    if eval_decision env frame cond then exec_stmt env frame then_
    else Option.iter (exec_stmt env frame) else_
  | Cfront.Ast.Swhile (cond, body) ->
    let rec loop () =
      if eval_decision env frame cond then begin
        (try exec_stmt env frame body with
         | Break_signal -> raise Exit_loop
         | Continue_signal -> ());
        loop ()
      end
    in
    (try loop () with Exit_loop -> ())
  | Cfront.Ast.Sdo_while (body, cond) ->
    let rec loop () =
      (try exec_stmt env frame body with
       | Break_signal -> raise Exit_loop
       | Continue_signal -> ());
      if eval_decision env frame cond then loop ()
    in
    (try loop () with Exit_loop -> ())
  | Cfront.Ast.Sfor { init; cond; update; body } ->
    (match init with
     | Cfront.Ast.Fi_decl ds -> List.iter (declare_local env frame) ds
     | Cfront.Ast.Fi_expr e -> ignore (eval env frame e)
     | Cfront.Ast.Fi_empty -> ());
    let check () =
      match cond with None -> true | Some c -> eval_decision env frame c
    in
    let rec loop () =
      if check () then begin
        (try exec_stmt env frame body with
         | Break_signal -> raise Exit_loop
         | Continue_signal -> ());
        Option.iter (fun u -> ignore (eval env frame u)) update;
        loop ()
      end
    in
    (try loop () with Exit_loop -> ())
  | Cfront.Ast.Sswitch (scrutinee, body) ->
    let v = Value.as_int (eval env frame scrutinee) in
    let stmts =
      match body.Cfront.Ast.s with
      | Cfront.Ast.Sblock ss -> ss
      | _ -> [ body ]
    in
    let arr = Array.of_list stmts in
    let n = Array.length arr in
    (* find matching case, else default *)
    let clause_idx = ref (-1) in
    let target = ref None in
    let default = ref None in
    let count = ref 0 in
    Array.iteri
      (fun i s ->
        match s.Cfront.Ast.s with
        | Cfront.Ast.Scase ce ->
          let cv = Value.as_int (eval env frame ce) in
          if !target = None && Int64.equal cv v then begin
            target := Some i;
            clause_idx := !count
          end;
          incr count
        | Cfront.Ast.Sdefault ->
          default := Some (i, !count);
          incr count
        | _ -> ())
      arr;
    let start =
      match (!target, !default) with
      | Some i, _ -> Some i
      | None, Some (i, idx) ->
        clause_idx := idx;
        Some i
      | None, None -> None
    in
    (match start with
     | None -> ()
     | Some i ->
       env.hooks.on_switch stmt.Cfront.Ast.sid !clause_idx;
       (try
          for j = i to n - 1 do
            exec_stmt env frame arr.(j)
          done
        with Break_signal -> ()))
  | Cfront.Ast.Scase _ | Cfront.Ast.Sdefault -> ()
  | Cfront.Ast.Sbreak -> raise Break_signal
  | Cfront.Ast.Scontinue -> raise Continue_signal
  | Cfront.Ast.Sreturn None -> raise (Return_signal Value.Vvoid)
  | Cfront.Ast.Sreturn (Some e) -> raise (Return_signal (eval env frame e))
  | Cfront.Ast.Sgoto l -> raise (Goto_signal l)
  | Cfront.Ast.Slabel (_, inner) -> exec_stmt env frame inner
  | Cfront.Ast.Stry { body; catches } -> (
      try exec_stmt env frame body
      with Cxx_throw v -> (
          match catches with
          | [] -> raise (Cxx_throw v)
          | (_, handler) :: _ -> exec_stmt env frame handler))

(* ------------------------------------------------------------------ *)
(* Program loading and running                                         *)
(* ------------------------------------------------------------------ *)

let load_tu env (tu : Cfront.Ast.tu) =
  (* records first (layouts), then enums, then globals, then functions *)
  List.iter
    (fun r -> Hashtbl.replace env.layouts r.Cfront.Ast.r_name (layout_of_record env r))
    (Cfront.Ast.records_of_tu tu);
  Cfront.Ast.iter_tops
    (fun top ->
      match top with
      | Cfront.Ast.Tenum e ->
        let next = ref 0L in
        List.iter
          (fun (name, v) ->
            let v64 =
              match v with Some i -> Int64.of_int i | None -> !next
            in
            Hashtbl.replace env.enums name v64;
            next := Int64.add v64 1L)
          e.Cfront.Ast.en_items
      | _ -> ())
    tu.Cfront.Ast.tops;
  List.iter
    (fun (g : Cfront.Ast.global_var) ->
      if not g.Cfront.Ast.g_extern then begin
        let d = g.Cfront.Ast.g_decl in
        let ty = d.Cfront.Ast.v_type in
        let p = Memory.alloc env.mem ~init:(default_value ty) (Stdlib.max 1 (size_of env ty)) in
        let qname = String.concat "::" (g.Cfront.Ast.g_scope @ [ d.Cfront.Ast.v_name ]) in
        Hashtbl.replace env.globals qname (p, ty);
        if qname <> d.Cfront.Ast.v_name then
          Hashtbl.replace env.globals d.Cfront.Ast.v_name (p, ty)
      end)
    (Cfront.Ast.globals_of_tu tu);
  (* global initializers run after all globals exist *)
  let frame = { vars = [] } in
  List.iter
    (fun (g : Cfront.Ast.global_var) ->
      match g.Cfront.Ast.g_decl.Cfront.Ast.v_init with
      | Some init when not g.Cfront.Ast.g_extern ->
        let name = g.Cfront.Ast.g_decl.Cfront.Ast.v_name in
        (match Hashtbl.find_opt env.globals name with
         | Some (p, ty) -> Memory.store env.mem p (convert_to ty (eval env frame init))
         | None -> ())
      | _ -> ())
    (Cfront.Ast.globals_of_tu tu);
  List.iter
    (fun (fn : Cfront.Ast.func) ->
      if fn.Cfront.Ast.f_body <> None then begin
        Hashtbl.replace env.funcs (Cfront.Ast.qualified_name fn) fn;
        if not (Hashtbl.mem env.funcs fn.Cfront.Ast.f_name) then
          Hashtbl.replace env.funcs fn.Cfront.Ast.f_name fn
      end)
    (Cfront.Ast.functions_of_tu tu)

(** Load several units and call [entry] with the given argument values. *)
let run env tus ~entry ~args =
  Cfront.Ast.check_disjoint_ids ~caller:"Interp.run" tus;
  List.iter (load_tu env) tus;
  match resolve_func env entry with
  | None -> Error (Printf.sprintf "entry function %s not found" entry)
  | Some fn -> (
      try Ok (call_function env fn args) with
      | Runtime_error (msg, loc) ->
        Error (Printf.sprintf "%s: %s" (Cfront.Loc.to_string loc) msg)
      | Memory.Fault msg -> Error ("memory fault: " ^ msg)
      | Builtins.Builtin_error msg -> Error ("builtin error: " ^ msg)
      | Step_limit_exceeded -> Error "step limit exceeded"
      | Cxx_throw v -> Error ("uncaught C++ exception: " ^ Value.to_string v))

(** Call each entry in order in the same (already loaded) environment.
    A failing entry does not stop the rest: the environment survives
    errors, and the fault-injection / gap-probe scenarios count the
    coverage reached before a fault. *)
let run_entries env ~entries =
  List.map (fun entry -> (entry, run env [] ~entry ~args:[])) entries

let output env = Buffer.contents env.output
