(** In-memory project model.

    A project is a set of source files grouped into modules (Apollo's
    perception, planning, ...).  Files live in memory — the corpus
    generator produces them and the analyzers consume them without
    touching the filesystem, which keeps experiments hermetic. *)

type source_file = {
  path : string;  (** project-relative path, e.g. "perception/detector.cc" *)
  modname : string;  (** owning module *)
  header : bool;
  content : string;
}

type modul = { m_name : string; m_files : source_file list }

type t = { p_name : string; p_modules : modul list }

type parsed_file = { file : source_file; tu : Ast.tu }

type parsed = {
  project : t;
  files : parsed_file list;
  types_key : string;  (** hash of the shared type-name pre-scan *)
}

val make : name:string -> modul list -> t
val all_files : t -> source_file list
val file_count : t -> int

(** Cheap cross-file type discovery: struct/class/enum/typedef names
    collected by a token scan over every file, standing in for the
    header-shared declarations of a real build. *)
val scan_type_names : source_file list -> string list

(** Parse every file, seeding each unit's type registry with
    {!scan_type_names} of the whole project.  Each file's ids start at 0:
    the units are analysed one by one, not run as one program. *)
val parse : t -> parsed

(** Cache key for the whole source tree: every path + content, in
    order.  Whole-project artifacts (per-rule MISRA results) key on
    this. *)
val content_key : t -> string

(** Cache key for one parsed file: path + content hash + the shared
    type-name scan.  Per-file artifacts (dataflow summaries) key on
    this. *)
val file_key : parsed -> parsed_file -> string

val parsed_files_of_module : parsed -> string -> parsed_file list
val module_names : t -> string list

(** Functions with a body across the given files. *)
val defined_functions : parsed_file list -> Ast.func list

val all_functions : parsed -> Ast.func list
