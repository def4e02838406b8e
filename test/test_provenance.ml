(* Provenance journal test suite: content-derived id stability, the
   collect/absorb buffering discipline (also for a collect whose domain
   helps with queued tasks while it awaits), pool tasks merging their
   findings only through their own futures, canonical export order and
   dedup, id/prefix lookup, the adcheck-evidence/1 JSONL exporter, a
   reference implementation of ids, order and rendering as the
   byte-level oracle, the sort-once-per-journal-state invalidation,
   explain rendering with source excerpts, first-covering-scenario
   attribution in the coverage collector, the audit round-trip (every
   journal finding resolves by id to a non-empty witness chain), the
   cross-jobs journal differential (byte-identical at jobs 1/2/8 under
   the tick clock), and the CLI's unwritable-output failure mode. *)

module P = Provenance

let loc file line col = Cfront.Loc.make ~file ~line ~col

let mk ?loc ~kind ~analysis msg =
  P.make ~kind ~analysis ?loc ~message:msg
    ~witness:[ P.step "site" "%s" msg ] ()

(* ------------------------------------------------------------------ *)
(* Finding ids                                                         *)
(* ------------------------------------------------------------------ *)

let test_id_stable () =
  let a = mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion" in
  let b = mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion" in
  Alcotest.(check string) "equal content -> equal id" a.P.f_id b.P.f_id;
  Alcotest.(check bool) "id has the F- prefix" true
    (String.length a.P.f_id = 18 && String.sub a.P.f_id 0 2 = "F-");
  String.iter
    (fun c ->
      if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
        Alcotest.failf "non-hex digit %c in %s" c a.P.f_id)
    (String.sub a.P.f_id 2 16)

let test_id_content_sensitive () =
  let base = mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion" in
  let variants =
    [ mk ~kind:"dataflow" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion";
      mk ~kind:"misra" ~analysis:"9.1" ~loc:(loc "a.c" 3 1) "recursion";
      mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 2) "recursion";
      mk ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1) "recursion!";
      mk ~kind:"misra" ~analysis:"17.2" "recursion";
      P.make ~kind:"misra" ~analysis:"17.2" ~loc:(loc "a.c" 3 1)
        ~message:"recursion"
        ~witness:[ P.step "site" "recursion"; P.step "extra" "step" ] () ]
  in
  List.iter
    (fun v ->
      if v.P.f_id = base.P.f_id then
        Alcotest.failf "variant %s/%s collided with base id" v.P.f_kind
          v.P.f_analysis)
    variants

(* ------------------------------------------------------------------ *)
(* Sink: collect / absorb / dedup / canonical order                    *)
(* ------------------------------------------------------------------ *)

let test_collect_absorb () =
  P.reset ();
  let f1 = mk ~kind:"misra" ~analysis:"9.1" "global one" in
  let f2 = mk ~kind:"dataflow" ~analysis:"dead-store" "buffered two" in
  P.record f1;
  let (), collected = P.collect (fun () -> P.record f2) in
  Alcotest.(check (list string)) "collect captures the buffered finding"
    [ f2.P.f_id ]
    (List.map (fun f -> f.P.f_id) collected);
  Alcotest.(check (list string)) "buffered finding not yet global"
    [ f1.P.f_id ]
    (List.map (fun f -> f.P.f_id) (P.findings ()));
  P.absorb collected;
  Alcotest.(check int) "absorb lands it" 2 (List.length (P.findings ()));
  (* recording identical content again is invisible in the export *)
  P.record f1;
  P.record f2;
  Alcotest.(check int) "dedup by id" 2 (List.length (P.findings ()));
  P.reset ();
  Alcotest.(check int) "reset clears" 0 (List.length (P.findings ()))

(* A [collect] that awaits its own fan-out while tasks that record
   findings sit in the queue ahead of it.  Every worker is parked, so
   the collecting domain runs those queued tasks itself while it
   awaits; their findings must reach the journal, never the buffer of
   the [collect] they interrupted (a buffer that the dataflow cache
   stores as one file's artifact). *)
let check_collect_excludes_helped ~jobs =
  P.reset ();
  let pool = Util.Pool.create ~jobs in
  let m = Mutex.create () in
  let c = Condition.create () in
  let released = ref false in
  let release () =
    Mutex.lock m;
    released := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  Fun.protect
    ~finally:(fun () ->
      release ();
      Util.Pool.shutdown pool;
      P.reset ())
  @@ fun () ->
  let workers = jobs - 1 in
  let parked = Atomic.make 0 in
  let blockers =
    List.init workers (fun _ ->
        Util.Pool.submit pool (fun () ->
            Atomic.incr parked;
            Mutex.lock m;
            while not !released do
              Condition.wait c m
            done;
            Mutex.unlock m))
  in
  while Atomic.get parked < workers do
    Domain.cpu_relax ()
  done;
  let foreign = List.init 6 (fun i -> mk ~kind:"test" ~analysis:"foreign" (string_of_int i)) in
  let own = List.init 4 (fun i -> mk ~kind:"test" ~analysis:"own" (string_of_int i)) in
  let queued =
    List.map (fun f -> Util.Pool.submit pool (fun () -> P.record f)) foreign
  in
  let (), collected =
    P.collect (fun () ->
        Util.Pool.await_all
          (List.map
             (fun f ->
               Util.Pool.submit pool (fun () -> snd (P.collect (fun () -> P.record f))))
             own)
        |> List.iter P.absorb)
  in
  let ids fs = List.map (fun f -> f.P.f_id) fs in
  Alcotest.(check (list string))
    (Printf.sprintf "collect holds only its own findings at jobs=%d" jobs)
    (ids own) (ids collected);
  release ();
  ignore (Util.Pool.await_all blockers : unit list);
  ignore (Util.Pool.await_all queued : unit list);
  Alcotest.(check (list string))
    (Printf.sprintf "helped tasks' findings reach the journal at jobs=%d" jobs)
    (List.sort compare (ids foreign))
    (List.sort compare (ids (P.findings ())))

let test_collect_excludes_helped () =
  List.iter (fun jobs -> check_collect_excludes_helped ~jobs) [ 2; 8 ]

(* With every worker parked, the awaiting domain helps with queued
   foreign tasks before it reaches its own: their counters and findings
   stay theirs until their own futures are awaited, and then arrive. *)
let check_helped_merge_through_own_future ~jobs =
  P.reset ();
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let pool = Util.Pool.create ~jobs in
  let gate = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Util.Pool.shutdown pool;
      Telemetry.reset ();
      Telemetry.set_enabled false;
      P.reset ())
  @@ fun () ->
  let parked = Atomic.make 0 in
  let blockers =
    List.init (jobs - 1) (fun _ ->
        Util.Pool.submit pool (fun () ->
            Atomic.incr parked;
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get parked < jobs - 1 do
    Domain.cpu_relax ()
  done;
  let ran = Atomic.make 0 in
  let foreign = List.init 3 (fun i -> mk ~kind:"test" ~analysis:"foreign" (string_of_int i)) in
  let queued =
    List.map
      (fun f ->
        Util.Pool.submit pool (fun () ->
            Telemetry.incr "provtest.foreign";
            P.record f;
            Atomic.incr ran))
      foreign
  in
  let own = mk ~kind:"test" ~analysis:"own" "own" in
  Util.Pool.await (Util.Pool.submit pool (fun () -> P.record own));
  let ids fs = List.sort compare (List.map (fun f -> f.P.f_id) fs) in
  let label what = Printf.sprintf "%s at jobs=%d" what jobs in
  Alcotest.(check int) (label "foreign tasks ran while helping") 3 (Atomic.get ran);
  Alcotest.(check (list string)) (label "only the awaited finding merged")
    [ own.P.f_id ] (ids (P.findings ()));
  Alcotest.(check int) (label "no foreign counter merged") 0
    (Telemetry.counter "provtest.foreign");
  Atomic.set gate true;
  ignore (Util.Pool.await_all blockers : unit list);
  ignore (Util.Pool.await_all queued : unit list);
  Alcotest.(check (list string)) (label "foreign findings merged by their awaits")
    (ids (own :: foreign)) (ids (P.findings ()));
  Alcotest.(check int) (label "foreign counters merged by their awaits") 3
    (Telemetry.counter "provtest.foreign")

let test_helped_merge_through_own_future () =
  List.iter (fun jobs -> check_helped_merge_through_own_future ~jobs) [ 1; 2; 8 ]

let test_canonical_order () =
  P.reset ();
  (* record deliberately out of canonical order *)
  let fs =
    [ mk ~kind:"misra" ~analysis:"17.2" "z last";
      mk ~kind:"coverage" ~analysis:"uncovered-function" "m middle";
      mk ~kind:"coverage" ~analysis:"coverage-gap" "a first" ]
  in
  List.iter P.record fs;
  let keys =
    List.map (fun f -> (f.P.f_kind, f.P.f_analysis)) (P.findings ())
  in
  Alcotest.(check (list (pair string string)))
    "export sorted by (kind, analysis)"
    [ ("coverage", "coverage-gap"); ("coverage", "uncovered-function");
      ("misra", "17.2") ]
    keys;
  P.reset ()

let test_find () =
  P.reset ();
  let f = mk ~kind:"interproc" ~analysis:"recursion-cycle" "a -> b -> a" in
  P.record f;
  (match P.find f.P.f_id with
   | Ok g -> Alcotest.(check string) "exact id" f.P.f_id g.P.f_id
   | Error e -> Alcotest.failf "exact lookup failed: %s" e);
  (match P.find (String.sub f.P.f_id 0 8) with
   | Ok g -> Alcotest.(check string) "unique prefix" f.P.f_id g.P.f_id
   | Error e -> Alcotest.failf "prefix lookup failed: %s" e);
  (match P.find "F-" with
   | Error e ->
     Alcotest.(check bool) "short prefix explains the minimum" true
       (String.length e > 0
        && String.sub e 0 (String.length "unknown") = "unknown")
   | Ok _ -> Alcotest.fail "2-char prefix must not resolve");
  (match P.find "F-0000000000000000" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown id must not resolve");
  P.reset ()

(* ------------------------------------------------------------------ *)
(* adcheck-evidence/1 exporter                                         *)
(* ------------------------------------------------------------------ *)

let parse_json what s =
  match Benchdiff.Json.parse s with
  | j -> j
  | exception Benchdiff.Json.Parse_error msg ->
    Alcotest.failf "%s is not valid JSON: %s" what msg

let test_journal_format () =
  P.reset ();
  let f1 =
    P.make ~kind:"misra" ~analysis:"9.1" ~loc:(loc "hostile \"file\".c" 2 5)
      ~message:"he said \"hi\"\n\ttab"
      ~witness:[ P.step ~loc:(loc "hostile \"file\".c" 1 1) "decl" "x\\y" ] ()
  in
  let f2 = mk ~kind:"metric" ~analysis:"T1.1" "enforcement" in
  P.record f1;
  P.record f2;
  let j = P.journal () in
  (match String.split_on_char '\n' j with
   | header :: lines ->
     let h = parse_json "journal header" header in
     (match Benchdiff.Json.member "schema" h with
      | Some (Benchdiff.Json.Str s) ->
        Alcotest.(check string) "schema" "adcheck-evidence/1" s
      | _ -> Alcotest.fail "header has no schema");
     (match Benchdiff.Json.member "findings" h with
      | Some (Benchdiff.Json.Num n) ->
        Alcotest.(check int) "header count" 2 (int_of_float n)
      | _ -> Alcotest.fail "header has no findings count");
     let body = List.filter (fun l -> l <> "") lines in
     Alcotest.(check int) "one line per finding" 2 (List.length body);
     List.iter
       (fun line ->
         let o = parse_json "finding line" line in
         List.iter
           (fun field ->
             if Benchdiff.Json.member field o = None then
               Alcotest.failf "finding line lacks %S: %s" field line)
           [ "id"; "kind"; "analysis"; "loc"; "message"; "witness" ])
       body
   | [] -> Alcotest.fail "empty journal");
  (* write_journal round-trips the same bytes *)
  let path = Filename.temp_file "adcheck-ev" ".jsonl" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  P.write_journal ~path ();
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "file contents = journal ()" j contents;
  (* an unwritable path raises Sys_error, which the CLI turns into the
     one-line error + exit 1 (covered by the spawn test below) *)
  (match P.write_journal ~path:"/nonexistent-adcheck-dir/ev.jsonl" () with
   | () -> Alcotest.fail "expected Sys_error"
   | exception Sys_error _ -> ());
  P.reset ()

(* ------------------------------------------------------------------ *)
(* Reference oracle: the journal as it was first implemented           *)
(* ------------------------------------------------------------------ *)

(* The straightforward implementation the journal must keep matching
   byte for byte: ids hash the materialised canonical string with a
   [String.iter] fold and print with [Printf]; the canonical order is a
   [List.sort] on the key tuple under polymorphic [compare] with
   [Hashtbl] dedup; rendering goes through [Printf] and a [json_escape]
   buffer per field. *)
module Reference = struct
  let fnv1a64 s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s;
    !h

  let loc_key = function
    | None -> "-"
    | Some l -> Cfront.Loc.to_string l

  let canonical_content (f : P.finding) =
    let buf = Buffer.create 256 in
    Buffer.add_string buf f.P.f_kind;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf f.P.f_analysis;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf (loc_key f.P.f_loc);
    Buffer.add_char buf '\x00';
    Buffer.add_string buf f.P.f_message;
    List.iter
      (fun s ->
        Buffer.add_char buf '\x00';
        Buffer.add_string buf s.P.w_label;
        Buffer.add_char buf '\x01';
        Buffer.add_string buf (loc_key s.P.w_loc);
        Buffer.add_char buf '\x01';
        Buffer.add_string buf s.P.w_detail)
      f.P.f_witness;
    Buffer.contents buf

  let id f = Printf.sprintf "F-%016Lx" (fnv1a64 (canonical_content f))

  let findings recorded =
    let key (f : P.finding) =
      (f.P.f_kind, f.P.f_analysis, loc_key f.P.f_loc, f.P.f_message, f.P.f_id)
    in
    let sorted = List.sort (fun a b -> compare (key a) (key b)) recorded in
    let seen = Hashtbl.create 256 in
    List.filter
      (fun (f : P.finding) ->
        if Hashtbl.mem seen f.P.f_id then false
        else begin
          Hashtbl.add seen f.P.f_id ();
          true
        end)
      sorted

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

  let finding_json (f : P.finding) =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"id\":\"%s\",\"kind\":\"%s\",\"analysis\":\"%s\",\"loc\":%s,\"message\":\"%s\",\"witness\":["
         (json_escape f.P.f_id) (json_escape f.P.f_kind)
         (json_escape f.P.f_analysis) (loc_json f.P.f_loc)
         (json_escape f.P.f_message));
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "{\"label\":\"%s\",\"loc\":%s,\"detail\":\"%s\"}"
             (json_escape s.P.w_label) (loc_json s.P.w_loc)
             (json_escape s.P.w_detail)))
      f.P.f_witness;
    Buffer.add_string buf "]}";
    Buffer.contents buf

  let journal fs =
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
end

(* Random findings drawn from small pools, so that sort keys tie on
   leading fields and equal content recurs; strings carry the bytes
   JSON must escape (quote, backslash, newline, tab, other control
   bytes), and line/column numbers straddle 9/10 so string order and
   numeric order of locations disagree (f.cc:10:1 < f.cc:9:1). *)
let gen_findings =
  let open QCheck.Gen in
  let text =
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; ':'; '9'; '"'; '\\'; '\n'; '\t'; '\r'; '\x00'; '\x01'; '\x1f'; '\x7f'; '\xc3' ])
      (int_range 0 5)
  in
  let pick xs = oneof [ oneofl xs; text ] in
  let loc =
    opt
      (map3
         (fun file line col -> Cfront.Loc.make ~file ~line ~col)
         (pick [ "f.cc"; "g.cc"; "say \"hi\".c"; "dir\\x.h" ])
         (int_range (-1) 12) (int_range 0 11))
  in
  let step =
    map3
      (fun label loc detail -> P.step ?loc label "%s" detail)
      (pick [ "decl"; "use"; "call" ]) loc (pick [ "x"; "y = 1"; "tab\there" ])
  in
  let finding =
    map3
      (fun (kind, analysis) (loc, message) witness ->
        P.make ~kind ~analysis ?loc ~message ~witness ())
      (pair (oneofl [ "misra"; "dataflow"; "coverage" ]) (pick [ "9.1"; "17.2"; "dead-store" ]))
      (pair loc (pick [ "m"; "he said \"no\""; "line\nbreak" ]))
      (list_size (int_range 0 3) step)
  in
  (* every finding at index i with i mod 3 = 0 is recorded twice *)
  map
    (fun fs -> fs @ List.filteri (fun i _ -> i mod 3 = 0) fs)
    (list_size (int_range 0 40) finding)

let arb_findings =
  QCheck.make gen_findings ~print:(fun fs ->
      String.concat "\n" (List.map Reference.canonical_content fs))

let prop_journal_matches_reference =
  QCheck.Test.make ~name:"findings and journal match the reference" ~count:300
    arb_findings (fun recorded ->
      P.reset ();
      Fun.protect ~finally:P.reset @@ fun () ->
      List.iter
        (fun f ->
          if f.P.f_id <> Reference.id f then
            QCheck.Test.fail_reportf "id %s, reference %s" f.P.f_id (Reference.id f))
        recorded;
      List.iter P.record recorded;
      let expected = Reference.findings recorded in
      if P.findings () <> expected then
        QCheck.Test.fail_reportf "findings () differ from the reference order";
      let j = P.journal () in
      let rj = Reference.journal expected in
      if j <> rj then QCheck.Test.fail_reportf "journal:\n%s\nreference:\n%s" j rj;
      true)

(* [findings] sorts once per journal state: with nothing recorded in
   between it returns the very same list, and every way a finding can
   reach the global sink (record, absorb, a pool task's await) makes
   the next call see it. *)
let test_sort_once_invalidation () =
  P.reset ();
  Fun.protect ~finally:P.reset @@ fun () ->
  let f1 = mk ~kind:"misra" ~analysis:"9.1" "one" in
  let f2 = mk ~kind:"misra" ~analysis:"9.1" "two" in
  let f3 = mk ~kind:"dataflow" ~analysis:"dead-store" "three" in
  let f4 = mk ~kind:"coverage" ~analysis:"coverage-gap" "four" in
  let ids () = List.sort compare (List.map (fun f -> f.P.f_id) (P.findings ())) in
  let expect what fs =
    Alcotest.(check (list string)) what
      (List.sort compare (List.map (fun f -> f.P.f_id) fs))
      (ids ())
  in
  P.record f1;
  let first = P.findings () in
  Alcotest.(check bool) "unchanged journal: physically the same list" true
    (first == P.findings ());
  ignore (P.journal () : string);
  Alcotest.(check bool) "journal () reuses the same sort" true
    (first == P.findings ());
  P.record f2;
  expect "record invalidates" [ f1; f2 ];
  P.absorb [ f3 ];
  expect "absorb invalidates" [ f1; f2; f3 ];
  let pool = Util.Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) (fun () ->
      Util.Pool.await (Util.Pool.submit pool (fun () -> P.record f4)));
  expect "a pool task's await at jobs=2 invalidates" [ f1; f2; f3; f4 ];
  P.reset ();
  Alcotest.(check int) "reset gives []" 0 (List.length (P.findings ()))

let test_explain_excerpt () =
  let src = "int x;\nint y = x + 1;\n" in
  let f =
    P.make ~kind:"dataflow" ~analysis:"uninit-read" ~loc:(loc "u.c" 2 9)
      ~message:"x read before initialization"
      ~witness:
        [ P.step ~loc:(loc "u.c" 1 5) "decl" "x declared without initializer";
          P.step ~loc:(loc "u.c" 2 9) "use" "x read here" ]
      ()
  in
  let source file = if file = "u.c" then Some src else None in
  let text = P.explain ~source f in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    if not (go 0) then
      Alcotest.failf "explain output lacks %S:\n%s" needle text
  in
  contains f.P.f_id;
  contains "x read before initialization";
  contains "[decl]";
  contains "[use]";
  contains "u.c:2:9";
  (* the source excerpt with line number and caret *)
  contains "   2 | int y = x + 1;";
  contains "^"

(* ------------------------------------------------------------------ *)
(* First-covering-scenario attribution (coverage collector)            *)
(* ------------------------------------------------------------------ *)

let test_attribution_first_wins () =
  let col = Coverage.Collector.create ~origin:"sc-a" () in
  let hooks = Coverage.Collector.hooks col in
  hooks.Coverage.Interp.on_stmt 7;
  hooks.Coverage.Interp.on_stmt 7;
  Alcotest.(check (option string)) "stmt attributed to the origin"
    (Some "sc-a")
    (Coverage.Collector.first_covering_stmt col 7);
  Alcotest.(check (option string)) "unseen stmt unattributed" None
    (Coverage.Collector.first_covering_stmt col 8);
  hooks.Coverage.Interp.on_decision 3 [] true;
  Alcotest.(check (option string)) "decision outcome attributed"
    (Some "sc-a")
    (Coverage.Collector.first_covering_decision col 3 true);
  Alcotest.(check (option string)) "other outcome unattributed" None
    (Coverage.Collector.first_covering_decision col 3 false);
  (* unnamed collectors never attribute — the pre-existing behavior *)
  let anon = Coverage.Collector.create () in
  let ah = Coverage.Collector.hooks anon in
  ah.Coverage.Interp.on_stmt 7;
  Alcotest.(check (option string)) "anonymous collector stays empty" None
    (Coverage.Collector.first_covering_stmt anon 7)

let test_attribution_merge_least () =
  let make_col origin sids =
    let col = Coverage.Collector.create ~origin () in
    let hooks = Coverage.Collector.hooks col in
    List.iter hooks.Coverage.Interp.on_stmt sids;
    col
  in
  let a = make_col "beta" [ 1; 2 ] in
  let b = make_col "alpha" [ 1; 3 ] in
  let ab = Coverage.Collector.merge [ a; b ] in
  let ba = Coverage.Collector.merge [ b; a ] in
  Alcotest.(check string) "merge order invisible in the fingerprint"
    (Coverage.Collector.fingerprint ab)
    (Coverage.Collector.fingerprint ba);
  Alcotest.(check (option string)) "least scenario name wins" (Some "alpha")
    (Coverage.Collector.first_covering_stmt ab 1);
  Alcotest.(check (option string)) "sole coverer kept" (Some "beta")
    (Coverage.Collector.first_covering_stmt ab 2);
  Alcotest.(check (option string)) "sole coverer kept (other side)"
    (Some "alpha")
    (Coverage.Collector.first_covering_stmt ab 3);
  (* attribution is part of the observational state: same hits under a
     different origin must change the fingerprint *)
  let c = make_col "gamma" [ 1; 2 ] in
  Alcotest.(check bool) "origin visible in the fingerprint" true
    (Coverage.Collector.fingerprint a <> Coverage.Collector.fingerprint c)

(* ------------------------------------------------------------------ *)
(* Audit round-trip and the cross-jobs journal differential            *)
(* ------------------------------------------------------------------ *)

let restore_jobs = Util.Pool.default_jobs ()

(* The full audit pipeline at [jobs] workers under the tick clock; the
   journal string is the byte-level object under test, the audit record
   feeds the round-trip checks. *)
let audit_at ~jobs =
  Util.Pool.set_default_jobs jobs;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Telemetry.install_tick_clock ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.use_wall_clock ();
      Telemetry.reset ();
      Telemetry.set_enabled false;
      Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let audit =
    Iso26262.Audit.run ~seed:2019 ~specs:Corpus.Apollo_profile.small ()
  in
  (P.journal (), audit)

let oracle = lazy (audit_at ~jobs:1)

let test_audit_round_trip () =
  let journal_str, audit = Lazy.force oracle in
  let fs = audit.Iso26262.Audit.journal in
  Alcotest.(check bool) "journal nonempty" true (fs <> []);
  (* every finding id resolves and carries a non-empty witness chain *)
  let ids = Hashtbl.create 1024 in
  List.iter
    (fun f ->
      if Hashtbl.mem ids f.P.f_id then
        Alcotest.failf "duplicate id %s in the journal" f.P.f_id;
      Hashtbl.add ids f.P.f_id ();
      if f.P.f_witness = [] then
        Alcotest.failf "finding %s (%s/%s) has an empty witness chain"
          f.P.f_id f.P.f_kind f.P.f_analysis)
    fs;
  (* all five producer domains journaled something *)
  List.iter
    (fun kind ->
      if not (List.exists (fun f -> f.P.f_kind = kind) fs) then
        Alcotest.failf "no %s findings in the audit journal" kind)
    [ "misra"; "dataflow"; "interproc"; "coverage"; "metric" ];
  (* id lookup round-trips (sampled: find is a linear scan), and the
     explain rendering carries the witness chain *)
  let sample =
    List.filteri (fun i _ -> i mod (max 1 (List.length fs / 25)) = 0) fs
  in
  List.iter
    (fun f ->
      match P.find f.P.f_id with
      | Ok g ->
        Alcotest.(check string) "find returns the same finding" f.P.f_id
          g.P.f_id;
        let text = P.explain g in
        if String.length text = 0 || g.P.f_witness = [] then
          Alcotest.failf "explain %s rendered no witness chain" f.P.f_id
      | Error e -> Alcotest.failf "find %s failed: %s" f.P.f_id e)
    sample;
  (* the exported journal agrees with the audit's captured journal *)
  let h = parse_json "journal header"
      (List.hd (String.split_on_char '\n' journal_str))
  in
  (match Benchdiff.Json.member "findings" h with
   | Some (Benchdiff.Json.Num n) ->
     Alcotest.(check int) "header count = captured journal size"
       (List.length fs) (int_of_float n)
   | _ -> Alcotest.fail "journal header lacks findings count");
  (* the rendered audit surfaces the new columns, and the tool-evidence
     matrix links only ids that exist in the journal *)
  let rendered = Iso26262.Audit.render audit in
  let contains needle hay =
    let n = String.length needle and hl = String.length hay in
    let rec go i = i + n <= hl && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "coverage report has the attribution column" true
    (contains "first covered by" rendered);
  Alcotest.(check bool) "tool-evidence matrix has the finding-ids column" true
    (contains "finding ids" rendered);
  let matrix =
    Iso26262.Traceability.tool_evidence_matrix ~journal:fs
      ~observations:audit.Iso26262.Audit.observations
      audit.Iso26262.Audit.metrics
  in
  let linked =
    List.concat_map
      (fun r -> r.Iso26262.Traceability.te_findings)
      matrix
  in
  Alcotest.(check bool) "matrix links at least one finding" true (linked <> []);
  List.iter
    (fun id ->
      if not (Hashtbl.mem ids id) then
        Alcotest.failf "matrix links %s, absent from the journal" id)
    linked

let check_journal_identical ~jobs =
  let oracle_journal, _ = Lazy.force oracle in
  let journal, _ = audit_at ~jobs in
  Alcotest.(check string)
    (Printf.sprintf "evidence journal byte-identical at jobs=%d" jobs)
    oracle_journal journal

let test_journal_jobs2 () = check_journal_identical ~jobs:2
let test_journal_jobs8 () = check_journal_identical ~jobs:8

(* ------------------------------------------------------------------ *)
(* CLI unwritable-output policy (spawns the real binary)               *)
(* ------------------------------------------------------------------ *)

let adcheck_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/adcheck.exe"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_unwritable ~flag ~what =
  let err = Filename.temp_file "adcheck-err" ".txt" in
  at_exit (fun () -> try Sys.remove err with Sys_error _ -> ());
  let cmd =
    Printf.sprintf "%s misra --scale small --seed 7 %s %s >/dev/null 2>%s"
      (Filename.quote adcheck_exe) flag
      (Filename.quote "/nonexistent-adcheck-dir/out")
      (Filename.quote err)
  in
  let rc = Sys.command cmd in
  Alcotest.(check int) (Printf.sprintf "%s: exit code" flag) 1 rc;
  let stderr = read_file err in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' stderr)
  in
  Alcotest.(check int) (Printf.sprintf "%s: one-line error" flag) 1
    (List.length lines);
  let line = List.hd lines in
  let prefix = Printf.sprintf "adcheck: cannot write %s:" what in
  Alcotest.(check bool)
    (Printf.sprintf "%s: error names the artifact (%S)" flag line)
    true
    (String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix)

let test_unwritable_evidence () = check_unwritable ~flag:"--evidence" ~what:"evidence journal"
let test_unwritable_metrics () = check_unwritable ~flag:"--metrics" ~what:"metrics"

(* [check] on a file it cannot parse must not report it as clean: the
   file is labelled NOT ANALYSED, kept out of the MISRA summary, and the
   exit status is 1; a clean file alongside it is still analysed. *)
let test_check_unparsed_fails () =
  let write contents =
    let path = Filename.temp_file "adcheck-check" ".c" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    path
  in
  let good = write "int g(int y) {\n  int z = y + 1;\n  return z;\n}\n" in
  let bad = write "int f(int x) {\n  if (x > 0 {\n    return 1;\n  }\n" in
  let run files =
    let out = Filename.temp_file "adcheck-out" ".txt" in
    let err = Filename.temp_file "adcheck-err" ".txt" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove out with Sys_error _ -> ());
        try Sys.remove err with Sys_error _ -> ())
    @@ fun () ->
    let rc =
      Sys.command
        (Printf.sprintf "%s check %s >%s 2>%s" (Filename.quote adcheck_exe)
           (String.concat " " (List.map Filename.quote files))
           (Filename.quote out) (Filename.quote err))
    in
    (rc, read_file out, read_file err)
  in
  let has sub s = Util.Strutil.contains_sub ~sub s in
  let rc, out, _ = run [ good ] in
  Alcotest.(check int) "clean file: exit 0" 0 rc;
  Alcotest.(check bool) "clean file: MISRA summary" true
    (has "compliance summary" out);
  Alcotest.(check bool) "clean file: nothing unanalysed" false
    (has "NOT ANALYSED" out);
  let rc, out, err = run [ bad ] in
  Alcotest.(check int) "unparsed file: exit 1" 1 rc;
  Alcotest.(check bool) "unparsed file labelled" true (has "NOT ANALYSED" out);
  Alcotest.(check bool) "no all-zero summary for it" false
    (has "compliance summary" out);
  Alcotest.(check bool) "stderr names the gap" true
    (has "1 file(s) NOT ANALYSED" err);
  let rc, out, _ = run [ good; bad ] in
  Alcotest.(check int) "mixed: exit 1" 1 rc;
  Alcotest.(check bool) "mixed: summary covers the clean file only" true
    (has "MISRA summary over 1 of 2 file(s)" out)

let () =
  Alcotest.run "provenance"
    [
      ( "finding-ids",
        [
          Alcotest.test_case "equal content, equal id" `Quick test_id_stable;
          Alcotest.test_case "content-sensitive" `Quick
            test_id_content_sensitive;
        ] );
      ( "sink",
        [
          Alcotest.test_case "collect/absorb/dedup" `Quick test_collect_absorb;
          Alcotest.test_case "collect excludes helped tasks" `Quick
            test_collect_excludes_helped;
          Alcotest.test_case "helped task merges at its own await" `Quick
            test_helped_merge_through_own_future;
          Alcotest.test_case "canonical export order" `Quick
            test_canonical_order;
          Alcotest.test_case "find by id and prefix" `Quick test_find;
        ] );
      ( "export",
        [
          Alcotest.test_case "adcheck-evidence/1 shape" `Quick
            test_journal_format;
          Alcotest.test_case "explain renders the why-chain" `Quick
            test_explain_excerpt;
          QCheck_alcotest.to_alcotest prop_journal_matches_reference;
          Alcotest.test_case "sort once per journal state" `Quick
            test_sort_once_invalidation;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "first covering scenario wins" `Quick
            test_attribution_first_wins;
          Alcotest.test_case "merge keeps the least name" `Quick
            test_attribution_merge_least;
        ] );
      ( "audit",
        [
          Alcotest.test_case "round-trip: every finding explains" `Slow
            test_audit_round_trip;
          Alcotest.test_case "journal identical at jobs=2" `Slow
            test_journal_jobs2;
          Alcotest.test_case "journal identical at jobs=8" `Slow
            test_journal_jobs8;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unwritable --evidence fails loudly" `Slow
            test_unwritable_evidence;
          Alcotest.test_case "unwritable --metrics fails loudly" `Slow
            test_unwritable_metrics;
          Alcotest.test_case "check fails on unparsed input" `Slow
            test_check_unparsed_fails;
        ] );
    ]
