(** Structured provenance journal.  See provenance.mli. *)

type step = {
  w_label : string;
  w_loc : Cfront.Loc.t option;
  w_detail : string;
}

type finding = {
  f_id : string;
  f_kind : string;
  f_analysis : string;
  f_loc : Cfront.Loc.t option;
  f_message : string;
  f_witness : step list;
}

let step ?loc label fmt =
  Printf.ksprintf (fun detail -> { w_label = label; w_loc = loc; w_detail = detail }) fmt

(* ------------------------------------------------------------------ *)
(* Content-derived ids                                                 *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the canonical serialization of the finding.  64-bit, so
   collisions are vanishingly unlikely at journal scale (tens of
   thousands of findings); ids are stable across runs, jobs values and
   processes because they depend on nothing but the content.

   The serialization is

     kind \0 analysis \0 loc \0 message
       { \0 label \1 loc \1 detail }   (one group per witness step)

   where loc is [loc_key]: ["-"] for none, [file:line:col] otherwise.
   The hash folds over those bytes piece by piece; the string itself is
   never built. *)
let loc_key = function
  | None -> "-"
  | Some l -> Cfront.Loc.to_string l

let hash_loc h loc =
  let open Util.Strutil in
  match loc with
  | None -> fnv1a64_char h '-'
  | Some (l : Cfront.Loc.t) ->
    let h = fnv1a64_char (fnv1a64_string h l.file) ':' in
    let h = fnv1a64_char (fnv1a64_string h (string_of_int l.line)) ':' in
    fnv1a64_string h (string_of_int l.col)

let content_hash ~kind ~analysis ~loc ~message ~witness =
  let open Util.Strutil in
  let after sep h s = fnv1a64_string (fnv1a64_char h sep) s in
  let h = fnv1a64_string fnv_offset kind in
  let h = after '\x00' h analysis in
  let h = hash_loc (fnv1a64_char h '\x00') loc in
  let h = after '\x00' h message in
  List.fold_left
    (fun h s ->
      let h = after '\x00' h s.w_label in
      let h = hash_loc (fnv1a64_char h '\x01') s.w_loc in
      after '\x01' h s.w_detail)
    h witness

let make ~kind ~analysis ?loc ~message ~witness () =
  let id =
    Printf.sprintf "F-%016Lx" (content_hash ~kind ~analysis ~loc ~message ~witness)
  in
  { f_id = id; f_kind = kind; f_analysis = analysis; f_loc = loc;
    f_message = message; f_witness = witness }

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let global_rev : finding list ref = ref []

(* The canonical list [findings] last computed from the current
   [global_rev]: every change to [global_rev] drops it, and [findings]
   stores it only while [global_rev] is still physically the list it
   sorted. *)
let canonical : finding list option ref = ref None

let set_global_rev l =
  global_rev := l;
  canonical := None

(* The buffer of the innermost [collect] or pool task running on this
   domain, if any: recording never contends on the global mutex. *)
let local_buf : finding list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record f =
  Telemetry.incr ("provenance.findings." ^ f.f_kind);
  match Domain.DLS.get local_buf with
  | Some buf -> buf := f :: !buf
  | None -> locked (fun () -> set_global_rev (f :: !global_rev))

let absorb fs =
  match Domain.DLS.get local_buf with
  | Some buf -> buf := List.rev_append fs !buf
  | None ->
    if fs <> [] then locked (fun () -> set_global_rev (List.rev_append fs !global_rev))

(* Install a fresh buffer; the returned function restores the previous
   one and yields the buffered findings in record order. *)
let enter_buffer () =
  let prev = Domain.DLS.get local_buf in
  let buf = ref [] in
  Domain.DLS.set local_buf (Some buf);
  fun () ->
    Domain.DLS.set local_buf prev;
    List.rev !buf

let collect f =
  let leave = enter_buffer () in
  match f () with
  | v -> (v, leave ())
  | exception e ->
    ignore (leave () : finding list);
    raise e

(* The provenance task context: every pool task records into a buffer
   of its own, never into the [collect] it interrupted (that buffer may
   end up in a cached artifact of other code), and its findings reach
   the awaiting domain's active sink when its future is first
   awaited. *)
let () =
  Util.Pool.add_task_context (fun () ->
      let leave = enter_buffer () in
      fun () ->
        let fs = leave () in
        fun () -> absorb fs)

let memo c ?owner ~kind ~key f =
  match Cache.find c ~kind ~key with
  | Some (v, fs) ->
    absorb fs;
    v
  | None ->
    let v, fs = collect f in
    Cache.store c ?owner ~kind ~key (v, fs);
    absorb fs;
    v

let reset () = locked (fun () -> set_global_rev [])

(* Canonical journal order: content-sorted, deduplicated by id.  The
   sort key starts with the human-meaningful fields so the journal reads
   grouped by kind and analysis; the id tiebreak makes the order total.
   Dedup by id is sound because the id is derived from the full content:
   equal id means equal finding (hash collisions aside).

   Each finding's key is built once ([loc_key] is the only derived
   field) and compared field by field with [String.compare] — the order
   polymorphic [compare] gives the key tuple.  The sort is stable over
   record order, so the first of two equal keys in sorted order is the
   first recorded, as with [List.sort]. *)
type keyed = { k_loc : string; k_f : finding }

let compare_keyed a b =
  let fa = a.k_f and fb = b.k_f in
  let c = String.compare fa.f_kind fb.f_kind in
  if c <> 0 then c
  else
    let c = String.compare fa.f_analysis fb.f_analysis in
    if c <> 0 then c
    else
      let c = String.compare a.k_loc b.k_loc in
      if c <> 0 then c
      else
        let c = String.compare fa.f_message fb.f_message in
        if c <> 0 then c else String.compare fa.f_id fb.f_id

let canonical_order rev =
  let keyed =
    Array.of_list (List.rev_map (fun f -> { k_loc = loc_key f.f_loc; k_f = f }) rev)
  in
  Array.stable_sort compare_keyed keyed;
  let seen = Hashtbl.create (Array.length keyed) in
  let kept =
    Array.fold_left
      (fun acc { k_f = f; _ } ->
        if Hashtbl.mem seen f.f_id then acc
        else begin
          Hashtbl.add seen f.f_id ();
          f :: acc
        end)
      [] keyed
  in
  List.rev kept

(* One sort per journal state: the audit's [journal] field, [journal ()]
   and [find] share it.  The sort runs outside the lock and is kept only
   if nothing was recorded meanwhile. *)
let findings () =
  let raw, last = locked (fun () -> (!global_rev, !canonical)) in
  match last with
  | Some fs -> fs
  | None ->
    let fs = canonical_order raw in
    locked (fun () -> if !global_rev == raw then canonical := Some fs);
    fs

let find id =
  let fs = findings () in
  match List.find_opt (fun f -> f.f_id = id) fs with
  | Some f -> Ok f
  | None ->
    if String.length id < 4 then
      Error (Printf.sprintf "unknown finding id %s (prefixes need >= 4 characters)" id)
    else begin
      let matches =
        List.filter
          (fun f ->
            String.length f.f_id >= String.length id
            && String.sub f.f_id 0 (String.length id) = id)
          fs
      in
      match matches with
      | [ f ] -> Ok f
      | [] -> Error (Printf.sprintf "unknown finding id %s" id)
      | _ :: _ ->
        Error
          (Printf.sprintf "ambiguous finding id prefix %s (%d matches)" id
             (List.length matches))
    end

(* ------------------------------------------------------------------ *)
(* adcheck-evidence/1                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything renders straight into the caller's buffer: no per-field
   string, no [Printf].  A JSON string escapes the double quote, the
   backslash and the control bytes below 0x20 (newline, carriage return
   and tab by name, the rest as \u00XX); every other byte, UTF-8
   included, is copied as is, in runs. *)
let hex_digits = "0123456789abcdef"

let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c ->
         Buffer.add_string buf "\\u00";
         Buffer.add_char buf hex_digits.[Char.code c lsr 4];
         Buffer.add_char buf hex_digits.[Char.code c land 0xf]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start)

let add_json_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* [n] in decimal, as [%d] prints it. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))
  end

let add_loc_json buf = function
  | None -> Buffer.add_string buf "null"
  | Some (l : Cfront.Loc.t) ->
    Buffer.add_char buf '"';
    add_escaped buf l.file;
    Buffer.add_char buf ':';
    add_int buf l.line;
    Buffer.add_char buf ':';
    add_int buf l.col;
    Buffer.add_char buf '"'

(* One finding's line, newline included. *)
let add_finding buf f =
  Buffer.add_string buf "{\"id\":";
  add_json_string buf f.f_id;
  Buffer.add_string buf ",\"kind\":";
  add_json_string buf f.f_kind;
  Buffer.add_string buf ",\"analysis\":";
  add_json_string buf f.f_analysis;
  Buffer.add_string buf ",\"loc\":";
  add_loc_json buf f.f_loc;
  Buffer.add_string buf ",\"message\":";
  add_json_string buf f.f_message;
  Buffer.add_string buf ",\"witness\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"label\":";
      add_json_string buf s.w_label;
      Buffer.add_string buf ",\"loc\":";
      add_loc_json buf s.w_loc;
      Buffer.add_string buf ",\"detail\":";
      add_json_string buf s.w_detail;
      Buffer.add_char buf '}')
    f.f_witness;
  Buffer.add_string buf "]}\n"

let add_header buf n =
  Buffer.add_string buf "{\"schema\":\"adcheck-evidence/1\",\"findings\":";
  add_int buf n;
  Buffer.add_string buf "}\n"

(* [f]'s line length from field lengths and the fixed JSON punctuation,
   escapes not counted and line/column taken as up to 6 digits: sizes
   the journal buffer so it rarely regrows. *)
let loc_size = function
  | None -> 4
  | Some (l : Cfront.Loc.t) -> String.length l.file + 16

let finding_size f =
  List.fold_left
    (fun n s ->
      n + 32 + String.length s.w_label + loc_size s.w_loc + String.length s.w_detail)
    (67 + String.length f.f_id + String.length f.f_kind
     + String.length f.f_analysis + loc_size f.f_loc + String.length f.f_message)
    f.f_witness

let journal () =
  let fs = findings () in
  let size = List.fold_left (fun n f -> n + finding_size f) 64 fs in
  let buf = Buffer.create (size + (size / 32)) in
  add_header buf (List.length fs);
  List.iter (add_finding buf) fs;
  Buffer.contents buf

(* Streams line by line through one reused buffer: the journal is never
   held whole in memory. *)
let write_journal ~path () =
  let fs = findings () in
  Out_channel.with_open_bin path (fun oc ->
      let buf = Buffer.create 4096 in
      add_header buf (List.length fs);
      List.iter
        (fun f ->
          add_finding buf f;
          Buffer.output_buffer oc buf;
          Buffer.clear buf)
        fs;
      Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)
(* Human-readable why-chains                                           *)
(* ------------------------------------------------------------------ *)

let excerpt ~source (l : Cfront.Loc.t) =
  match source l.Cfront.Loc.file with
  | None -> None
  | Some content ->
    let lines = String.split_on_char '\n' content in
    let line = l.Cfront.Loc.line in
    (* one line of context before, the line itself, a caret column *)
    let rec nth i = function
      | [] -> None
      | x :: _ when i = 0 -> Some x
      | _ :: tl -> nth (i - 1) tl
    in
    (match nth (line - 1) lines with
     | None -> None
     | Some this ->
       let buf = Buffer.create 128 in
       (match nth (line - 2) lines with
        | Some prev when line > 1 ->
          Buffer.add_string buf (Printf.sprintf "      %4d | %s\n" (line - 1) prev)
        | _ -> ());
       Buffer.add_string buf (Printf.sprintf "      %4d | %s\n" line this);
       if l.Cfront.Loc.col > 0 then
         Buffer.add_string buf
           (Printf.sprintf "           | %s^\n" (String.make (l.Cfront.Loc.col - 1) ' '));
       Some (Buffer.contents buf))

let explain ?(source = fun _ -> None) f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "finding %s\n  kind:     %s\n  analysis: %s\n" f.f_id
       f.f_kind f.f_analysis);
  (match f.f_loc with
   | Some l -> Buffer.add_string buf (Printf.sprintf "  location: %s\n" (Cfront.Loc.to_string l))
   | None -> ());
  Buffer.add_string buf (Printf.sprintf "  message:  %s\n" f.f_message);
  Buffer.add_string buf "  witness chain:\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "    %2d. [%s] %s%s\n" (i + 1) s.w_label s.w_detail
           (match s.w_loc with
            | Some l -> " @ " ^ Cfront.Loc.to_string l
            | None -> ""));
      match s.w_loc with
      | Some l -> Option.iter (Buffer.add_string buf) (excerpt ~source l)
      | None -> ())
    f.f_witness;
  Buffer.contents buf
