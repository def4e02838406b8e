(** Deterministic generator of an Apollo-profile C++/CUDA codebase.

    Everything is driven by a single seed; the same seed always produces
    byte-identical sources, so every number in the reproduced figures is
    stable.  Counted properties (functions over a complexity threshold,
    explicit casts, mutable globals, gotos, recursive functions,
    uninitialized reads, CUDA kernels) are driven by exact quotas from the
    {!Apollo_profile} spec rather than probabilities. *)

(* ------------------------------------------------------------------ *)
(* Code writer                                                          *)
(* ------------------------------------------------------------------ *)

type writer = {
  buf : Buffer.t;
  mutable indent : int;
  mutable lines : int;
}

let new_writer () = { buf = Buffer.create 4096; indent = 0; lines = 0 }

let line w s =
  Buffer.add_string w.buf (String.make (2 * w.indent) ' ');
  Buffer.add_string w.buf s;
  Buffer.add_char w.buf '\n';
  w.lines <- w.lines + 1

(* Emit [s], wrapping at a ", " or " + " boundary with a 4-space
   continuation when it would exceed the style guide's 100 columns. *)
let line_fit w s =
  let width = (2 * w.indent) + String.length s in
  if width <= 100 then line w s
  else begin
    let split_at sep =
      let rec last_before i acc =
        if i + String.length sep > String.length s then acc
        else if String.sub s i (String.length sep) = sep
                && i + (2 * w.indent) < 96 then last_before (i + 1) (Some i)
        else last_before (i + 1) acc
      in
      last_before 0 None
    in
    let cut =
      match split_at ", " with
      | Some i -> Some (i + 1)  (* keep the comma on the first line *)
      | None -> (
          match split_at " && " with
          | Some i -> Some (i + 3)
          | None -> (
              match split_at " || " with
              | Some i -> Some (i + 3)
              | None -> (
                  match split_at "; " with
                  | Some i -> Some (i + 1)
                  | None -> (
                      match split_at " + " with
                      | Some i -> Some (i + 2)
                      | None -> None))))
    in
    match cut with
    | Some i ->
      line w (String.sub s 0 i);
      line w ("    " ^ Util.Strutil.strip (String.sub s i (String.length s - i)))
    | None -> line w s
  end

let blank w =
  Buffer.add_char w.buf '\n';
  w.lines <- w.lines + 1

let push w = w.indent <- w.indent + 1
let pop w = w.indent <- Stdlib.max 0 (w.indent - 1)

(* ------------------------------------------------------------------ *)
(* Quotas                                                               *)
(* ------------------------------------------------------------------ *)

type quotas = {
  mutable casts : int;
  mutable gotos : int;
  mutable uninit : int;
  mutable dead : int;  (** unreachable statements after an early return *)
}

(* Per-function plan, precomputed for the whole module so that quota
   counts are exact. *)
type cc_class = Low | Moderate | Risky | Unstable

type fn_plan = {
  cc_class : cc_class;
  multi_exit : bool;
  recursive : bool;
  kernel : bool;
}

let make_plans rng (spec : Apollo_profile.module_spec) =
  let n = spec.Apollo_profile.n_functions in
  let unstable = spec.Apollo_profile.over50 in
  let risky = spec.Apollo_profile.over20 - spec.Apollo_profile.over50 in
  let moderate = spec.Apollo_profile.over10 - spec.Apollo_profile.over20 in
  let classes =
    List.init n (fun i ->
        if i < unstable then Unstable
        else if i < unstable + risky then Risky
        else if i < unstable + risky + moderate then Moderate
        else Low)
  in
  let classes = Util.Rng.shuffle rng classes in
  let n_multi = int_of_float (spec.Apollo_profile.multi_exit_frac *. float_of_int n) in
  let multi = Util.Rng.shuffle rng (List.init n (fun i -> i < n_multi)) in
  let recur =
    Util.Rng.shuffle rng (List.init n (fun i -> i < spec.Apollo_profile.recursive_fns))
  in
  let kern =
    Util.Rng.shuffle rng (List.init n (fun i -> i < spec.Apollo_profile.cuda_kernels))
  in
  let plans =
    List.map2
      (fun (cc_class, multi_exit) (recursive, kernel) ->
        { cc_class; multi_exit; recursive; kernel })
      (List.combine classes multi)
      (List.combine recur kern)
  in
  (* recursive functions use a fixed low-complexity template, so a
     recursive plan must not consume a high-complexity quota slot: swap
     its class with a Low non-recursive plan *)
  let arr = Array.of_list plans in
  Array.iteri
    (fun i p ->
      if (p.recursive || p.kernel) && p.cc_class <> Low then
        match
          Array.to_list arr
          |> List.mapi (fun j q -> (j, q))
          |> List.find_opt (fun (_, q) ->
                 q.cc_class = Low && (not q.recursive) && not q.kernel)
        with
        | Some (j, q) ->
          arr.(j) <- { q with cc_class = p.cc_class };
          arr.(i) <- { p with cc_class = Low }
        | None -> ())
    arr;
  Array.to_list arr

let cc_target rng = function
  | Low -> Util.Rng.range rng 1 8
  | Moderate -> Util.Rng.range rng 11 19
  | Risky -> Util.Rng.range rng 21 45
  | Unstable -> Util.Rng.range rng 51 68

(* ------------------------------------------------------------------ *)
(* Expression fragments                                                 *)
(* ------------------------------------------------------------------ *)


type scope = {
  mutable ints : string list;
  mutable floats : string list;
  (* int-returning functions already emitted in this file: name, arity *)
  mutable callables : (string * int) list;
}

let pick_int rng sc = Util.Rng.pick rng sc.ints
let pick_float rng sc = Util.Rng.pick rng sc.floats

let int_expr rng sc =
  match Util.Rng.int rng 5 with
  | 0 -> Printf.sprintf "%s + %d" (pick_int rng sc) (Util.Rng.range rng 1 9)
  | 1 -> Printf.sprintf "%s * %d" (pick_int rng sc) (Util.Rng.range rng 2 5)
  | 2 -> Printf.sprintf "%s - %s" (pick_int rng sc) (pick_int rng sc)
  | 3 -> Printf.sprintf "(%s + %s) / 2" (pick_int rng sc) (pick_int rng sc)
  | _ -> Printf.sprintf "%s %% %d" (pick_int rng sc) (Util.Rng.range rng 2 7)

let float_expr rng sc =
  match Util.Rng.int rng 4 with
  | 0 -> Printf.sprintf "%s * 0.5" (pick_float rng sc)
  | 1 -> Printf.sprintf "%s + %.2f" (pick_float rng sc) (Util.Rng.float rng 4.0)
  | 2 -> Printf.sprintf "%s - %s" (pick_float rng sc) (pick_float rng sc)
  | _ -> Printf.sprintf "%s * %s" (pick_float rng sc) (pick_float rng sc)

let int_cond rng sc =
  match Util.Rng.int rng 4 with
  | 0 -> Printf.sprintf "%s > %d" (pick_int rng sc) (Util.Rng.range rng 0 8)
  | 1 -> Printf.sprintf "%s < %s" (pick_int rng sc) (pick_int rng sc)
  | 2 -> Printf.sprintf "%s != %d" (pick_int rng sc) (Util.Rng.range rng 0 3)
  | _ -> Printf.sprintf "%s >= %d" (pick_int rng sc) (Util.Rng.range rng 1 5)

let float_cond rng sc =
  Printf.sprintf "%s > %.2f" (pick_float rng sc) (Util.Rng.float rng 2.0)

(* A condition consuming [extra] additional decisions via && / ||. *)
let cond_with rng sc extra =
  let base = int_cond rng sc in
  let rec add acc k =
    if k = 0 then acc
    else
      let op = if Util.Rng.bool rng then "&&" else "||" in
      let nxt = if Util.Rng.bool rng then int_cond rng sc else float_cond rng sc in
      add (Printf.sprintf "%s %s %s" acc op nxt) (k - 1)
  in
  add base extra

(* ------------------------------------------------------------------ *)
(* Statement emission                                                   *)
(* ------------------------------------------------------------------ *)

let plain_stmt rng sc (q : quotas) w =
  if q.casts > 0 && Util.Rng.chance rng 0.18 then begin
    q.casts <- q.casts - 1;
    if Util.Rng.bool rng then
      line_fit w
        (Printf.sprintf "%s = (int)%s;" (pick_int rng sc) (pick_float rng sc))
    else
      line_fit w
        (Printf.sprintf "%s = static_cast<float>(%s);" (pick_float rng sc)
           (pick_int rng sc))
  end
  else
    match Util.Rng.int rng 6 with
    | 0 -> line w (Printf.sprintf "%s = %s;" (pick_int rng sc) (int_expr rng sc))
    | 1 -> line w (Printf.sprintf "%s = %s;" (pick_float rng sc) (float_expr rng sc))
    | 2 -> line w (Printf.sprintf "%s += %d;" (pick_int rng sc) (Util.Rng.range rng 1 4))
    | 3 -> line w (Printf.sprintf "%s *= 0.9;" (pick_float rng sc))
    | 4 ->
      (match sc.callables with
       | [] -> line w (Printf.sprintf "%s = %s;" (pick_int rng sc) (int_expr rng sc))
       | cs ->
         let name, arity = Util.Rng.pick rng cs in
         let args =
           String.concat ", " (List.init arity (fun _ -> pick_int rng sc))
         in
         (* one call in six discards the return value: the defensive-
            implementation gap of Observation 6 / MISRA 17.7 *)
         if Util.Rng.chance rng 0.17 then
           line_fit w (Printf.sprintf "%s(%s);" name args)
         else
           line_fit w
             (Printf.sprintf "%s = %s + %s(%s);" (pick_int rng sc)
                (pick_int rng sc) name args))
    | _ -> line w (Printf.sprintf "%s = %s + 1;" (pick_int rng sc) (pick_int rng sc))

(* Emit a local declaration, teaching the scope about it. *)
let declare_local ng rng sc (q : quotas) w =
  let name = Namegen.local_name ng rng in
  if Util.Rng.bool rng then begin
    line w (Printf.sprintf "int %s = %s;" name (int_expr rng sc));
    sc.ints <- name :: sc.ints
  end
  else begin
    line w (Printf.sprintf "float %s = %s;" name (float_expr rng sc));
    sc.floats <- name :: sc.floats
  end;
  ignore q

(* An uninitialized-read pattern: declaration without initializer, read
   under a condition before any assignment. *)
let uninit_pattern ng rng sc w =
  let name = Namegen.local_name ng rng in
  line w (Printf.sprintf "int %s;" name);
  line w (Printf.sprintf "if (%s) {" (int_cond rng sc));
  push w;
  line w (Printf.sprintf "%s = %s + %s;" (pick_int rng sc) (pick_int rng sc) name);
  pop w;
  line w "}";
  sc.ints <- name :: sc.ints

(* ------------------------------------------------------------------ *)
(* Control-structure emission to hit an exact decision count            *)
(* ------------------------------------------------------------------ *)

(* Emits structures consuming exactly [decisions] decision points. *)
let rec emit_decisions ng rng sc q w ~depth decisions =
  if decisions > 0 then begin
    let choice = Util.Rng.int rng 100 in
    if choice < 38 || depth >= 3 then begin
      (* if with optional && chain *)
      let extra = Stdlib.min (decisions - 1) (Util.Rng.int rng 3) in
      line_fit w (Printf.sprintf "if (%s) {" (cond_with rng sc extra));
      push w;
      plain_stmt rng sc q w;
      if Util.Rng.chance rng 0.4 then plain_stmt rng sc q w;
      pop w;
      line w "}";
      emit_decisions ng rng sc q w ~depth (decisions - 1 - extra)
    end
    else if choice < 55 then begin
      (* if/else *)
      line w (Printf.sprintf "if (%s) {" (int_cond rng sc));
      push w;
      plain_stmt rng sc q w;
      pop w;
      line w "} else {";
      push w;
      plain_stmt rng sc q w;
      pop w;
      line w "}";
      emit_decisions ng rng sc q w ~depth (decisions - 1)
    end
    else if choice < 75 then begin
      (* counted for loop, possibly with a nested structure *)
      let i = Namegen.local_name ng rng in
      line_fit w
        (Printf.sprintf "for (int %s = 0; %s < %s; ++%s) {" i i (pick_int rng sc) i);
      push w;
      sc.ints <- i :: sc.ints;
      let inner =
        if depth < 3 then Stdlib.min (decisions - 1) (Util.Rng.int rng 3) else 0
      in
      if inner > 0 then emit_decisions ng rng sc q w ~depth:(depth + 1) inner
      else plain_stmt rng sc q w;
      sc.ints <- List.tl sc.ints;
      pop w;
      line w "}";
      emit_decisions ng rng sc q w ~depth (decisions - 1 - inner)
    end
    else if choice < 85 && decisions >= 2 then begin
      (* switch: k cases consume k decisions *)
      let k = Stdlib.min decisions (Util.Rng.range rng 2 4) in
      line w (Printf.sprintf "switch (%s %% %d) {" (pick_int rng sc) (k + 1));
      push w;
      for c = 0 to k - 1 do
        line w (Printf.sprintf "case %d:" c);
        push w;
        plain_stmt rng sc q w;
        line w "break;";
        pop w
      done;
      if Util.Rng.chance rng 0.75 then begin
        line w "default:";
        push w;
        line w "break;";
        pop w
      end;
      pop w;
      line w "}";
      emit_decisions ng rng sc q w ~depth (decisions - k)
    end
    else begin
      (* while loop *)
      let i = Namegen.local_name ng rng in
      line w (Printf.sprintf "int %s = %d;" i (Util.Rng.range rng 2 6));
      sc.ints <- i :: sc.ints;
      line w (Printf.sprintf "while (%s > 0) {" i);
      push w;
      plain_stmt rng sc q w;
      line w (Printf.sprintf "%s -= 1;" i);
      pop w;
      line w "}";
      emit_decisions ng rng sc q w ~depth (decisions - 1)
    end
  end

(* ------------------------------------------------------------------ *)
(* Function emission                                                    *)
(* ------------------------------------------------------------------ *)

(* Returns [Some kernel_name] when the emitted function is a CUDA kernel,
   so the caller can add a host-side launch wrapper. *)
let emit_function ng rng sc q w (plan : fn_plan) ~line_budget =
  let name =
    if plan.kernel then Namegen.kernel_name ng rng else Namegen.function_name ng rng
  in
  let p_int1 = Namegen.local_name ng rng in
  let p_int2 = Namegen.local_name ng rng in
  let p_float = Namegen.local_name ng rng in
  blank w;
  let fn_scope =
    { ints = [ p_int1; p_int2 ]; floats = [ p_float ]; callables = sc.callables }
  in
  let start_lines = w.lines in
  if plan.kernel then begin
    line_fit w
      (Printf.sprintf
         "__global__ void %s(float* output, float* biases, int %s, int %s) {"
         name p_int1 p_int2);
    push w;
    line w "int offset = blockIdx.x * blockDim.x + threadIdx.x;";
    fn_scope.ints <- "offset" :: fn_scope.ints;
    fn_scope.floats <- [ "output[offset]" ];
    (* one in four kernels omits the bound check: the CUDA-1 hazard *)
    if Util.Rng.chance rng 0.75 then begin
      line w (Printf.sprintf "if (offset < %s) {" p_int2);
      push w;
      line w (Printf.sprintf "output[offset] = output[offset] * biases[offset %% %s];" p_int1);
      let target = cc_target rng plan.cc_class in
      if target > 2 then emit_decisions ng rng fn_scope q w ~depth:1 (target - 2);
      pop w;
      line w "}"
    end
    else begin
      line w (Printf.sprintf "output[offset] = output[offset] * biases[offset %% %s];" p_int1);
      let target = cc_target rng plan.cc_class in
      if target > 1 then emit_decisions ng rng fn_scope q w ~depth:0 (target - 1)
    end;
    pop w;
    line w "}";
    Some name
  end
  else if plan.recursive then begin
    line w (Printf.sprintf "int %s(int %s, int %s) {" name p_int1 p_int2);
    push w;
    line w (Printf.sprintf "if (%s <= 0) {" p_int2);
    push w;
    line w (Printf.sprintf "return %s;" p_int1);
    pop w;
    line w "}";
    line w (Printf.sprintf "return %s(%s - 1, %s - 1);" name p_int1 p_int2);
    pop w;
    line w "}";
    sc.callables <- (name, 2) :: sc.callables;
    None
  end
  else begin
    line_fit w
      (Printf.sprintf "int %s(int %s, int %s, float %s) {" name p_int1 p_int2 p_float);
    push w;
    let result = Namegen.local_name ng rng in
    line w (Printf.sprintf "int %s = 0;" result);
    fn_scope.ints <- result :: fn_scope.ints;
    declare_local ng rng fn_scope q w;
    if q.uninit > 0 && Util.Rng.chance rng 0.3 then begin
      q.uninit <- q.uninit - 1;
      uninit_pattern ng rng fn_scope w
    end;
    if plan.multi_exit then begin
      line w (Printf.sprintf "if (%s < 0) {" p_int1);
      push w;
      line w "return -1;";
      if q.dead > 0 && Util.Rng.chance rng 0.35 then begin
        (* statement after the return: never executes (MISRA 2.1) *)
        q.dead <- q.dead - 1;
        line w (Printf.sprintf "%s = %s - 1;" result result)
      end;
      pop w;
      line w "}"
    end;
    let target = cc_target rng plan.cc_class in
    let consumed = 1 + (if plan.multi_exit then 1 else 0) in
    if target > consumed then
      emit_decisions ng rng fn_scope q w ~depth:0 (target - consumed)
    else plain_stmt rng fn_scope q w;
    if q.gotos > 0 && Util.Rng.chance rng 0.25 then begin
      q.gotos <- q.gotos - 1;
      line w (Printf.sprintf "if (%s == 0) {" p_int2);
      push w;
      line w "goto done;";
      pop w;
      line w "}";
      line w (Printf.sprintf "%s = %s + 1;" result result);
      line w "done:";
      line w (Printf.sprintf "return %s;" result)
    end
    else begin
      (* pad to the line budget with straight-line code *)
      while w.lines - start_lines < line_budget - 2 do
        plain_stmt rng fn_scope q w
      done;
      line w (Printf.sprintf "return %s;" result)
    end;
    pop w;
    line w "}";
    sc.callables <- (name, 2) :: sc.callables;
    None
  end

(* ------------------------------------------------------------------ *)
(* Globals, constants, structs                                          *)
(* ------------------------------------------------------------------ *)

let emit_global ng rng w =
  match Util.Rng.int rng 4 with
  | 0 -> line w (Printf.sprintf "int %s = 0;" (Namegen.global_name ng rng))
  | 1 -> line w (Printf.sprintf "static int %s = %d;" (Namegen.global_name ng rng) (Util.Rng.range rng 0 64))
  | 2 -> line w (Printf.sprintf "double %s = 0.0;" (Namegen.global_name ng rng))
  | _ -> line w (Printf.sprintf "static float %s;" (Namegen.global_name ng rng))

let emit_constant ng rng w =
  line w
    (Printf.sprintf "const int %s = %d;" (Namegen.constant_name ng rng)
       (Util.Rng.range rng 8 512))

let emit_struct ng rng w =
  let name = Namegen.struct_name ng rng in
  line w (Printf.sprintf "struct %s {" name);
  push w;
  let nf = Util.Rng.range rng 3 6 in
  for _ = 1 to nf do
    let fname = Namegen.field_name ng rng in
    if Util.Rng.bool rng then line w (Printf.sprintf "float %s;" fname)
    else line w (Printf.sprintf "int %s;" fname)
  done;
  pop w;
  line w "};"

(* CUDA host-side wrapper demonstrating the Figure 4 pattern: device
   pointers, cudaMalloc, kernel launch; some leak (no cudaFree). *)
let emit_cuda_host ng rng sc q w ~kernel_name =
  let name = Namegen.function_name ng rng in
  blank w;
  line w (Printf.sprintf "void %s(float* host_data, int size) {" name);
  push w;
  line w "float* device_data;";
  line w "float* device_biases;";
  line w "cudaMalloc((void**)&device_data, size * sizeof(float));";
  line w "cudaMalloc((void**)&device_biases, size * sizeof(float));";
  line w "cudaMemcpy(device_data, host_data, size * sizeof(float), 1);";
  line w (Printf.sprintf "%s<<<(size + 255) / 256, 256>>>(device_data, device_biases, 4, size);" kernel_name);
  line w "cudaMemcpy(host_data, device_data, size * sizeof(float), 2);";
  if Util.Rng.chance rng 0.6 then begin
    line w "cudaFree(device_data);";
    line w "cudaFree(device_biases);"
  end;
  pop w;
  line w "}";
  ignore q;
  ignore sc

(* ------------------------------------------------------------------ *)
(* File and module emission                                             *)
(* ------------------------------------------------------------------ *)

(* Cross-module helpers: every module may call into "common"; perception
   and planning also call into "map".  These names are pre-seeded so the
   call graph has realistic inter-module coupling. *)
let common_api = [ ("CommonClampIndex", 2); ("CommonHashValue", 2); ("CommonCycleCount", 2) ]
let map_api = [ ("MapNearestLaneId", 2); ("MapSegmentCount", 2) ]

let api_stub w (name, arity) =
  let params =
    String.concat ", " (List.init arity (fun i -> Printf.sprintf "int arg%d" i))
  in
  blank w;
  line w (Printf.sprintf "int %s(%s) {" name params);
  push w;
  (match arity with
   | 2 -> line w "if (arg0 < 0) {"
   | _ -> line w "if (arg0 == 0) {");
  push w;
  line w "return 0;";
  pop w;
  line w "}";
  line w "return arg0 + arg1;";
  pop w;
  line w "}"

let split_quota total parts i =
  (* share of [total] for part [i] of [parts], exact in sum *)
  (total * (i + 1) / parts) - (total * i / parts)

let generate_file ng rng (spec : Apollo_profile.module_spec) ~file_idx ~plans
    ~(q : quotas) ~globals_here ~loc_budget =
  let w = new_writer () in
  line w
    (Printf.sprintf "// modules/%s/%s_component_%d.cc" spec.Apollo_profile.name
       spec.Apollo_profile.name file_idx);
  line w "// Generated Apollo-profile corpus file.";
  line w "#include <math.h>";
  line w (Printf.sprintf "#include \"modules/%s/common.h\"" spec.Apollo_profile.name);
  if spec.Apollo_profile.cuda_kernels > 0 then line w "#include <cuda_runtime.h>";
  blank w;
  line w "namespace apollo {";
  line w (Printf.sprintf "namespace %s {" spec.Apollo_profile.name);
  blank w;
  (* API stubs live in the first file of their module *)
  if file_idx = 0 && spec.Apollo_profile.name = "common" then
    List.iter (api_stub w) common_api;
  if file_idx = 0 && spec.Apollo_profile.name = "map" then
    List.iter (api_stub w) map_api;
  (* modules with worker threads spawn them in their first file — the
     architectural "scheduling properties" hazard *)
  if file_idx = 0 && spec.Apollo_profile.uses_threads then begin
    blank w;
    line w "void StartPipelineWorkers(int* thread_handle, int worker_count) {";
    push w;
    line w "for (int i = 0; i < worker_count; ++i) {";
    push w;
    line w "pthread_create(thread_handle, 0, 0, 0);";
    pop w;
    line w "}";
    pop w;
    line w "}";
    blank w
  end;
  emit_constant ng rng w;
  for _ = 1 to globals_here do
    emit_global ng rng w
  done;
  blank w;
  emit_struct ng rng w;
  let sc = { ints = []; floats = []; callables = [] } in
  (* seed cross-module calls *)
  if spec.Apollo_profile.name <> "common" then sc.callables <- common_api;
  if List.mem spec.Apollo_profile.name [ "perception"; "planning" ] then
    sc.callables <- map_api @ sc.callables;
  let n_fns = List.length plans in
  let per_fn_budget = if n_fns = 0 then 0 else loc_budget / Stdlib.max 1 n_fns in
  let kernel_names = ref [] in
  List.iter
    (fun plan ->
      match emit_function ng rng sc q w plan ~line_budget:per_fn_budget with
      | Some kname -> kernel_names := kname :: !kernel_names
      | None -> ())
    plans;
  (* host-side launch wrappers demonstrating the Figure 4 CUDA pattern *)
  List.iter
    (fun kname -> emit_cuda_host ng rng sc q w ~kernel_name:kname)
    (List.rev !kernel_names);
  blank w;
  line w (Printf.sprintf "}  // namespace %s" spec.Apollo_profile.name);
  line w "}  // namespace apollo";
  Buffer.contents w.buf

(* One module, generated entirely from its private SplitMix64 stream and
   name-id base — no shared mutable state, so modules are independent
   pool tasks. *)
let generate_module ~module_idx module_rng (spec : Apollo_profile.module_spec) =
  (* disjoint per-module name-id ranges: suffix uniqueness without
     cross-module sequencing (a module never mints 100k names) *)
  let ng = Namegen.make ~base:(module_idx * 100_000) () in
  let plans = make_plans module_rng spec in
  let q =
    {
      casts = spec.Apollo_profile.casts;
      gotos = spec.Apollo_profile.gotos;
      uninit = spec.Apollo_profile.uninit_vars;
      dead = spec.Apollo_profile.dead_code;
    }
  in
  let n_files = Stdlib.max 1 spec.Apollo_profile.n_files in
  let plan_arr = Array.of_list plans in
  let total_fns = Array.length plan_arr in
  let files =
    List.init n_files (fun file_idx ->
        let fn_start = total_fns * file_idx / n_files in
        let fn_stop = total_fns * (file_idx + 1) / n_files in
        let plans_here =
          Array.to_list (Array.sub plan_arr fn_start (fn_stop - fn_start))
        in
        let globals_here =
          split_quota spec.Apollo_profile.globals n_files file_idx
        in
        let loc_budget =
          split_quota spec.Apollo_profile.target_loc n_files file_idx - 15 - globals_here
        in
        let content =
          generate_file ng module_rng spec ~file_idx ~plans:plans_here ~q
            ~globals_here ~loc_budget
        in
        {
          Cfront.Project.path =
            Printf.sprintf "modules/%s/%s_component_%d.cc" spec.Apollo_profile.name
              spec.Apollo_profile.name file_idx;
          modname = spec.Apollo_profile.name;
          header = false;
          content;
        })
  in
  (* spend any unspent cast quota in a dedicated utility file so counts
     stay exact *)
  let files =
    if q.casts > 0 then begin
      let w = new_writer () in
      line w "// cast-heavy conversion helpers";
      line w "namespace apollo {";
      line w (Printf.sprintf "namespace %s {" spec.Apollo_profile.name);
      blank w;
      line w "void ConvertBatch(float* values, int* outputs, int n) {";
      push w;
      line w "for (int i = 0; i < n; ++i) {";
      push w;
      for _ = 1 to q.casts do
        line w "outputs[0] = (int)values[0];"
      done;
      q.casts <- 0;
      pop w;
      line w "}";
      pop w;
      line w "}";
      blank w;
      line w (Printf.sprintf "}  // namespace %s" spec.Apollo_profile.name);
      line w "}  // namespace apollo";
      files
      @ [
          {
            Cfront.Project.path =
              Printf.sprintf "modules/%s/%s_casts.cc" spec.Apollo_profile.name
                spec.Apollo_profile.name;
            modname = spec.Apollo_profile.name;
            header = false;
            content = Buffer.contents w.buf;
          };
        ]
    end
    else files
  in
  { Cfront.Project.m_name = spec.Apollo_profile.name; m_files = files }

(** Generate the whole project for a profile.  [seed] fixes everything. *)
let generate ?(seed = 2019) (specs : Apollo_profile.module_spec list) =
  Telemetry.with_span ~cat:"corpus" "corpus"
    ~attrs:[ ("seed", string_of_int seed);
             ("modules", string_of_int (List.length specs)) ]
    (fun () ->
      let rng = Util.Rng.create seed in
      (* The per-module streams are split off sequentially up front (the
         split sequence depends only on the seed and the module order),
         then module generation fans out over the worker pool: each task
         owns a private stream and a private name-id base, so the
         generated bytes are identical at every jobs value. *)
      let tasks =
        List.mapi (fun i spec -> (i, Util.Rng.split rng, spec)) specs
      in
      let modules =
        Util.Pool.parallel_map ~chunk_size:1
          (fun (module_idx, module_rng, spec) ->
            generate_module ~module_idx module_rng spec)
          tasks
      in
      let project = Cfront.Project.make ~name:"apollo-corpus" modules in
      Telemetry.add "corpus.modules" (List.length modules);
      Telemetry.add "corpus.files" (Cfront.Project.file_count project);
      Telemetry.add "corpus.bytes"
        (List.fold_left
           (fun acc (f : Cfront.Project.source_file) ->
             acc + String.length f.Cfront.Project.content)
           0
           (Cfront.Project.all_files project));
      project)
