(** Recursive-descent parser for the C/C++/CUDA subset.

    The parser is {b tolerant}: any top-level region it cannot parse is
    skipped (to the next balanced [;] or [}]) and recorded as
    {!Ast.Tunparsed} with a diagnostic — the behaviour of fuzzy industrial
    analyzers such as Lizard.  Inside function bodies parsing is strict; a
    failing body aborts only that definition.

    Expression and statement ids are a property of the parse: a unit
    numbers its nodes in parse order from a base it computes itself (0,
    or just past the ranges of the units it is parsed [~after]), recorded
    as [Ast.tu.id_base].  Parsing the same source at the same base
    always yields the same ids, whatever else the process parsed.  Units
    that run together as one program — where coverage counters keyed on
    ids must not alias — are parsed with {!parse_files} or [~after]. *)

exception Parse_error of string * Loc.t

(** Parse one translation unit.

    [extra_types] seeds the type-name registry — the stand-in for type
    names that would arrive via header includes (see
    {!Cfront.Project.parse}, which derives them automatically for
    multi-file projects).  [file] is used for locations only; [source] is
    the raw text (the preprocessor runs internally).  Ids start at
    [Ast.id_limit after] (0 by default), so the new unit's ranges are
    disjoint from those of every unit in [after]. *)
val parse_file :
  ?extra_types:string list -> ?after:Ast.tu list -> file:string -> string -> Ast.tu

(** Parse a multi-file program from [(path, source)] pairs, in order,
    with contiguous disjoint id ranges starting at [Ast.id_limit after]
    (0 by default). *)
val parse_files :
  ?extra_types:string list -> ?after:Ast.tu list -> (string * string) list -> Ast.tu list

(** Parse an expression in isolation (tests and tooling). *)
val parse_expr_string : string -> Ast.expr

(** Parse a statement in isolation (tests and tooling). *)
val parse_stmt_string : string -> Ast.stmt
