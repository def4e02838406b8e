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
   processes because they depend on nothing but the content. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let loc_key = function
  | None -> "-"
  | Some l -> Cfront.Loc.to_string l

let canonical_content ~kind ~analysis ~loc ~message ~witness =
  let buf = Buffer.create 256 in
  Buffer.add_string buf kind;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf analysis;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (loc_key loc);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf message;
  List.iter
    (fun s ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf s.w_label;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf (loc_key s.w_loc);
      Buffer.add_char buf '\x01';
      Buffer.add_string buf s.w_detail)
    witness;
  Buffer.contents buf

let make ~kind ~analysis ?loc ~message ~witness () =
  let id =
    Printf.sprintf "F-%016Lx"
      (fnv1a64 (canonical_content ~kind ~analysis ~loc ~message ~witness))
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

(* The buffer of the innermost [collect] or pool task running on this
   domain, if any: recording never contends on the global mutex. *)
let local_buf : finding list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record f =
  Telemetry.incr ("provenance.findings." ^ f.f_kind);
  match Domain.DLS.get local_buf with
  | Some buf -> buf := f :: !buf
  | None -> locked (fun () -> global_rev := f :: !global_rev)

let absorb fs =
  match Domain.DLS.get local_buf with
  | Some buf -> buf := List.rev_append fs !buf
  | None -> locked (fun () -> global_rev := List.rev_append fs !global_rev)

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

let reset () = locked (fun () -> global_rev := [])

(* Canonical journal order: content-sorted, deduplicated by id.  The
   sort key starts with the human-meaningful fields so the journal reads
   grouped by kind and analysis; the id tiebreak makes the order total.
   Dedup by id is sound because the id is derived from the full content:
   equal id means equal finding (hash collisions aside). *)
let compare_findings a b =
  let key f =
    (f.f_kind, f.f_analysis, loc_key f.f_loc, f.f_message, f.f_id)
  in
  compare (key a) (key b)

let findings () =
  let all = locked (fun () -> List.rev !global_rev) in
  let sorted = List.sort compare_findings all in
  let seen = Hashtbl.create 256 in
  List.filter
    (fun f ->
      if Hashtbl.mem seen f.f_id then false
      else begin
        Hashtbl.add seen f.f_id ();
        true
      end)
    sorted

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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let loc_json = function
  | None -> "null"
  | Some l -> Printf.sprintf "\"%s\"" (json_escape (Cfront.Loc.to_string l))

let finding_json f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"id\":\"%s\",\"kind\":\"%s\",\"analysis\":\"%s\",\"loc\":%s,\"message\":\"%s\",\"witness\":["
       (json_escape f.f_id) (json_escape f.f_kind) (json_escape f.f_analysis)
       (loc_json f.f_loc) (json_escape f.f_message));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"label\":\"%s\",\"loc\":%s,\"detail\":\"%s\"}"
           (json_escape s.w_label) (loc_json s.w_loc) (json_escape s.w_detail)))
    f.f_witness;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let journal () =
  let fs = findings () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":\"adcheck-evidence/1\",\"findings\":%d}\n"
       (List.length fs));
  List.iter
    (fun f ->
      Buffer.add_string buf (finding_json f);
      Buffer.add_char buf '\n')
    fs;
  Buffer.contents buf

let write_journal ~path () =
  let oc = open_out path in
  output_string oc (journal ());
  close_out oc

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
