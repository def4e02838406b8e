(** One-pass compiler from the shared Cfront AST to {!Bytecode}.

    [compile tus] lowers every function with a body (in
    [Interp.load_tu]'s load order) to a {!Bytecode.program}.  The result
    is immutable: compile once per shared parse and reuse it across
    scenarios, entry points and worker domains.  Raises
    [Invalid_argument] if two distinct units of [tus] have overlapping id
    ranges ({!Cfront.Ast.check_disjoint_ids}). *)

val compile : Cfront.Ast.tu list -> Bytecode.program
