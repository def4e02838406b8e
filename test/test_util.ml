(* Tests for the util library: PRNG, statistics, tables, string helpers. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.int a 1000) (Util.Rng.int b 1000)
  done

let test_rng_seed_changes_stream () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Util.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Util.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_split_independent () =
  (* drawing from a split stream must not perturb the parent *)
  let a = Util.Rng.create 7 in
  let _split = Util.Rng.split a in
  let next_after_split = Util.Rng.int a 1000 in
  let b = Util.Rng.create 7 in
  let _ = Util.Rng.split b in
  Alcotest.(check int) "parent reproducible" next_after_split (Util.Rng.int b 1000)

let test_rng_pick () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 50 do
    let v = Util.Rng.pick rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "pick member" true (List.mem v [ 1; 2; 3 ])
  done

let test_rng_pick_empty () =
  let rng = Util.Rng.create 3 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Util.Rng.pick rng []))

let test_rng_weighted_degenerate () =
  let rng = Util.Rng.create 5 in
  for _ = 1 to 20 do
    Alcotest.(check string) "all weight on one" "only"
      (Util.Rng.weighted rng [ (0.0, "never"); (1.0, "only") ])
  done

let test_rng_shuffle_is_permutation () =
  let rng = Util.Rng.create 11 in
  let xs = List.init 30 Fun.id in
  let ys = Util.Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_rng_chance_extremes () =
  let rng = Util.Rng.create 9 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false (Util.Rng.chance rng 0.0)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always" true (Util.Rng.chance rng 1.0)
  done

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_range_in_bounds =
  QCheck.Test.make ~name:"Rng.range stays in [lo,hi]" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 200))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let rng = Util.Rng.create seed in
      let v = Util.Rng.range rng lo hi in
      v >= lo && v <= hi)

let prop_rng_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float stays in [0,bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.float rng bound in
      v >= 0.0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_mean () =
  check_float "mean" 2.0 (Util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Util.Stats.mean [])

let test_median () =
  check_float "odd median" 3.0 (Util.Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "single" 7.0 (Util.Stats.median [ 7.0 ])

let test_stddev () =
  check_float "constant data" 0.0 (Util.Stats.stddev [ 4.0; 4.0; 4.0 ]);
  check_float "known stddev" 1.0 (Util.Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Util.Stats.percentile 50.0 xs);
  check_float "p100" 100.0 (Util.Stats.percentile 100.0 xs)

let test_histogram () =
  let h = Util.Stats.histogram ~buckets:[ (1, 10); (11, 20) ] [ 1; 5; 10; 11; 30 ] in
  Alcotest.(check int) "first bucket" 3 (List.assoc (1, 10) h);
  Alcotest.(check int) "second bucket" 1 (List.assoc (11, 20) h)

let test_geomean () =
  check_float "geomean of 2 and 8" 4.0 (Util.Stats.geomean [ 2.0; 8.0 ])

let test_clamp () =
  check_float "below" 0.0 (Util.Stats.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "above" 1.0 (Util.Stats.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "within" 0.5 (Util.Stats.clamp ~lo:0.0 ~hi:1.0 0.5)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies within min..max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Util.Stats.mean xs in
      m >= Util.Stats.minimum xs -. 1e-9 && m <= Util.Stats.maximum xs +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0. 100.))
    (fun xs ->
      Util.Stats.percentile 25.0 xs <= Util.Stats.percentile 75.0 xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table                                                                *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Util.Table.make ~title:"demo" ~header:[ "a"; "b" ]
      ~aligns:[ Util.Table.Left; Util.Table.Right ] ()
  in
  let t = Util.Table.add_row t [ "x"; "42" ] in
  let s = Util.Table.render t in
  Alcotest.(check bool) "has title" true (Util.Strutil.contains_sub ~sub:"demo" s);
  Alcotest.(check bool) "has header" true (Util.Strutil.contains_sub ~sub:"| a " s);
  Alcotest.(check bool) "has cell" true (Util.Strutil.contains_sub ~sub:"42" s)

let test_table_row_mismatch () =
  let t = Util.Table.make ~title:"t" ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: row width mismatch") (fun () ->
      ignore (Util.Table.add_row t [ "only-one" ]))

let test_table_formats () =
  Alcotest.(check string) "float" "3.14" (Util.Table.fmt_float 3.14159);
  Alcotest.(check string) "pct" "61.0%" (Util.Table.fmt_pct 61.0)

(* ------------------------------------------------------------------ *)
(* Strutil                                                              *)
(* ------------------------------------------------------------------ *)

let test_case_predicates () =
  Alcotest.(check bool) "snake yes" true (Util.Strutil.is_snake_case "frame_count2");
  Alcotest.(check bool) "snake no (upper)" false (Util.Strutil.is_snake_case "frameCount");
  Alcotest.(check bool) "camel yes" true (Util.Strutil.is_camel_case "TrackObstacle3");
  Alcotest.(check bool) "camel no (underscore)" false (Util.Strutil.is_camel_case "Track_Obstacle");
  Alcotest.(check bool) "kconstant yes" true (Util.Strutil.is_kconstant "kMaxBoxes");
  Alcotest.(check bool) "kconstant no" false (Util.Strutil.is_kconstant "MAX_BOXES" = true);
  Alcotest.(check bool) "member yes" true (Util.Strutil.is_member_name "track_id_");
  Alcotest.(check bool) "member no" false (Util.Strutil.is_member_name "track_id")

let test_strip_and_lines () =
  Alcotest.(check string) "strip" "abc" (Util.Strutil.strip "  abc\t ");
  Alcotest.(check int) "lines count" 3 (List.length (Util.Strutil.lines "a\nb\nc"));
  Alcotest.(check int) "trailing newline" 2 (List.length (Util.Strutil.lines "a\n"))

let test_contains_and_affixes () =
  Alcotest.(check bool) "sub yes" true (Util.Strutil.contains_sub ~sub:"bcd" "abcde");
  Alcotest.(check bool) "sub no" false (Util.Strutil.contains_sub ~sub:"xyz" "abcde");
  Alcotest.(check bool) "prefix" true (Util.Strutil.starts_with ~prefix:"ab" "abc");
  Alcotest.(check bool) "suffix" true (Util.Strutil.ends_with ~suffix:"bc" "abc")

let test_indent_width () =
  Alcotest.(check int) "four spaces" 4 (Util.Strutil.indent_width "    x");
  Alcotest.(check int) "none" 0 (Util.Strutil.indent_width "x")

let test_count_char () =
  Alcotest.(check int) "commas" 2 (Util.Strutil.count_char ',' "a,b,c")

(* The published FNV-1a 64 test vectors, and the cache's hex form. *)
let test_fnv1a64_vectors () =
  let hex s = Printf.sprintf "%016Lx" (Util.Strutil.fnv1a64 s) in
  Alcotest.(check string) "empty string" "cbf29ce484222325" (hex "");
  Alcotest.(check string) "\"a\"" "af63dc4c8601ec8c" (hex "a");
  Alcotest.(check string) "\"foobar\"" "85944171f73967e8" (hex "foobar");
  Alcotest.(check string) "Cache.fnv1a64 is the same hash in hex"
    (hex "foobar") (Cache.fnv1a64 "foobar")

(* Reference: the textbook byte fold, one [String.iter] step per byte. *)
let fnv1a64_reference s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let prop_fnv1a64_reference =
  QCheck.Test.make ~name:"fnv1a64 = String.iter reference fold" ~count:500
    QCheck.string
    (fun s -> Int64.equal (Util.Strutil.fnv1a64 s) (fnv1a64_reference s))

let prop_fnv1a64_continues =
  QCheck.Test.make ~name:"fnv1a64_string continues a hash across pieces"
    ~count:300 QCheck.(pair string string)
    (fun (a, b) ->
      let open Util.Strutil in
      Int64.equal (fnv1a64 (a ^ b)) (fnv1a64_string (fnv1a64 a) b))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "pick member" `Quick test_rng_pick;
          Alcotest.test_case "pick empty raises" `Quick test_rng_pick_empty;
          Alcotest.test_case "weighted degenerate" `Quick test_rng_weighted_degenerate;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_is_permutation;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_rng_range_in_bounds;
          QCheck_alcotest.to_alcotest prop_rng_float_in_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "clamp" `Quick test_clamp;
          QCheck_alcotest.to_alcotest prop_mean_bounded;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "chart",
        [
          Alcotest.test_case "render scales bars" `Quick (fun () ->
              let s =
                Util.Chart.render ~width:10 ~title:"t"
                  [ { Util.Chart.label = "a"; value = 10.0 };
                    { Util.Chart.label = "bb"; value = 5.0 } ]
              in
              Alcotest.(check bool) "max gets full width" true
                (Util.Strutil.contains_sub ~sub:"##########" s);
              Alcotest.(check bool) "half gets half" true
                (Util.Strutil.contains_sub ~sub:"#####" s);
              Alcotest.(check bool) "labels aligned" true
                (Util.Strutil.contains_sub ~sub:"a  |" s));
          Alcotest.test_case "grouped renders all series" `Quick (fun () ->
              let s =
                Util.Chart.render_grouped ~width:8 ~title:"g"
                  [ ("file1",
                     [ { Util.Chart.label = "x"; value = 4.0 };
                       { Util.Chart.label = "y"; value = 8.0 } ]) ]
              in
              Alcotest.(check bool) "group header" true
                (Util.Strutil.contains_sub ~sub:"file1" s);
              Alcotest.(check bool) "series bar" true
                (Util.Strutil.contains_sub ~sub:"########" s));
          Alcotest.test_case "zero max is safe" `Quick (fun () ->
              let s =
                Util.Chart.render ~title:"z" [ { Util.Chart.label = "a"; value = 0.0 } ]
              in
              Alcotest.(check bool) "renders" true (String.length s > 0));
        ] );
      ( "strutil",
        [
          Alcotest.test_case "case predicates" `Quick test_case_predicates;
          Alcotest.test_case "strip and lines" `Quick test_strip_and_lines;
          Alcotest.test_case "contains and affixes" `Quick test_contains_and_affixes;
          Alcotest.test_case "indent width" `Quick test_indent_width;
          Alcotest.test_case "count char" `Quick test_count_char;
          Alcotest.test_case "fnv1a64 known vectors" `Quick test_fnv1a64_vectors;
          QCheck_alcotest.to_alcotest prop_fnv1a64_reference;
          QCheck_alcotest.to_alcotest prop_fnv1a64_continues;
        ] );
    ]
