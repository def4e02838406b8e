(* adbench: the adcheck benchmark.

     adbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--corpus-seed N]

   Workloads (README.md in this directory says why each was chosen):
   - audit-full: cold full-scale audits (228k LOC, 214 files), jobs=2,
     no cache;
   - incremental-edit: one-file edits of the small profile re-audited
     against a content-addressed cache store, jobs=1;
   - incremental-warm: re-audits of the unchanged small profile, served
     from that store, jobs=1;
   - coverage-campaign: the Figure 5 / Observation 10 dynamic campaign
     (scenario set build, bytecode run, scoring), jobs=2.

   Each workload is a closed loop with one client.  [--corpus-seed]
   (default 2019, the paper corpus) generates the audited tree, [--seed]
   picks the first edited file and the sampled edit oracles, and
   [--seconds] bounds the time spent inside requests.  Every request's
   output is checked against an oracle outside the timed region.  With [--trace 0] the last line of
   standard output is a JSON object holding the end-to-end metrics;
   with [--trace 1] a traced run of the same workload replaces them
   with the per-layer metrics and writes Chrome traces under
   [.adbench/]. *)

module Audit = Iso26262.Audit
module PM = Iso26262.Project_metrics
module Scenario = Coverage.Scenario

let end_to_end =
  [ ("op_ms_p50", "ms"); ("op_ms_p75", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let gc_layers = [ "parse"; "misra"; "dataflow"; "interproc"; "metrics"; "assess"; "coverage" ]
let probed_rules = [ "IP-1"; "DF-2"; "DF-1"; "5.3"; "2.2"; "8.9" ]

let per_layer =
  [ ("corpus.generate_ms", "ms");
    ("cfront.parse_ms", "ms");
    ("cfront.scan_types_ms", "ms");
    ("cfront.parse_mb_per_s", "MB/s");
    ("cfront.callgraph_ms", "ms");
    ("misra.run_ms", "ms") ]
  @ List.map (fun r -> ("misra.rule." ^ r ^ "_ms", "ms")) probed_rules
  @ [ ("misra.violations", "count");
      ("dataflow.run_ms", "ms");
      ("dataflow.cfgs", "count");
      ("dataflow.functions", "count");
      ("dataflow.transfers", "count");
      ("dataflow.cfg_reuse", "ratio");
      ("interproc.analyze_ms", "ms");
      ("interproc.functions", "count");
      ("program.functions", "count");
      ("interproc.summary_reuse", "ratio");
      ("metrics.walk_ms", "ms");
      ("metrics.architecture_ms", "ms");
      ("assess.ms", "ms");
      ("report.render_ms", "ms");
      ("provenance.journal_ms", "ms");
      ("coverage.set_build_ms", "ms");
      ("coverage.run_all_ms", "ms");
      ("coverage.score_ms", "ms");
      ("coverage.slowest_scenario_ms", "ms");
      ("coverage.steps", "count");
      ("cudasim.yolo_ms", "ms");
      ("cudasim.stencil_ms", "ms");
      ("cache.hits_per_edit", "count");
      ("cache.misses_per_edit", "count");
      ("cache.artifacts_per_edit", "count");
      ("cache.edit_hit_ratio", "ratio");
      ("cache.hits_per_warm", "count");
      ("cache.misses_per_warm", "count");
      ("cache.store_bytes_per_edit", "bytes");
      ("cache.manifest_ms", "ms");
      ("cache.prime_ms", "ms");
      ("cache.uncached_ms", "ms");
      ("cache.prime_overhead", "ratio");
      ("pool.jobs", "count");
      ("pool.submitted", "count");
      ("pool.inline", "count");
      ("pool.inline_share", "ratio");
      ("pool.busy_ms", "ms");
      ("pool.wall_ms", "ms");
      ("pool.parallel_efficiency", "ratio");
      ("pool.busy_max_ms", "ms");
      ("pool.busy_min_ms", "ms");
      ("pool.busy_imbalance", "ratio");
      ("pool.queue_wait_us_p50", "us");
      ("pool.queue_wait_us_p90", "us");
      ("audit.j1_ms", "ms");
      ("audit.j2_ms", "ms");
      ("audit.speedup_j2", "ratio") ]
  @ List.concat_map
      (fun l -> [ (l ^ ".minor_mwords", "Mwords"); (l ^ ".major_mwords", "Mwords") ])
      gc_layers
  @ [ ("gc.phase_sum_ratio_j1", "ratio");
      ("gc.phase_sum_ratio_j2", "ratio");
      ("telemetry.traced_ms", "ms");
      ("telemetry.untraced_ms", "ms");
      ("telemetry.overhead_ratio", "ratio") ]

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum = List.fold_left ( +. ) 0.0
let mean xs = ratio (sum xs) (float_of_int (List.length xs))

(* Quantile [q] in [0, 1] of a sample, interpolating linearly between
   the two nearest ranks. *)
let quantile xs q =
  match Array.of_list (List.sort compare xs) with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %f" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  scan ()

(* Reset VmHWM to the current resident set (Linux clear_refs "5"), so
   the next reading is the peak of what runs from here on. *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.eprintf "adbench: FAILED %s\n%!" msg)
    fmt

let layer : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace layer name v

(* Work counts of the paper corpus (corpus seed 2019), as ROADMAP.md
   records them; a traced run at that seed that counts otherwise fails. *)
let baseline_2019 =
  [ ("dataflow.cfgs", 61721.0); ("dataflow.functions", 5611.0);
    ("interproc.functions", 11222.0); ("misra.violations", 114623.0);
    ("cache.hits_per_edit", 33.0); ("cache.misses_per_edit", 70.0);
    ("cache.misses_per_warm", 0.0) ]

let check_baseline ~corpus_seed names =
  if corpus_seed = 2019 then
    List.iter
      (fun name ->
        let want = List.assoc name baseline_2019 in
        match Hashtbl.find_opt layer name with
        | Some got when got = want -> ()
        | got ->
          fail "%s is %g at corpus seed 2019, not %g" name
            (Option.value ~default:Float.nan got) want)
      names

(* Lines of the human-readable summary, printed before the JSON line. *)
let lines = ref []
let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt

(* Closed loop with one client.  [prepare i] builds request [i]'s input
   outside the timed region; [request] is timed; [check] runs a cheap
   oracle afterwards, also untimed, and calls [fail] on a mismatch.
   Nothing else runs between requests, so each request pays for the
   garbage collection its predecessors leave behind; the set-up's garbage
   is collected before the first.  Requests stop once their summed
   latency would pass [seconds] (judged by the last request's latency),
   but one always runs.  Returns the latencies in ms and the median over
   requests of each request's peak resident set. *)
let closed_loop ~seconds ~prepare ~request ~check =
  let rec go i spent last acc rss =
    if i > 0 && spent +. last > seconds then (List.rev acc, median rss)
    else begin
      let input = prepare i in
      if i = 0 then Gc.compact ();
      reset_peak_rss ();
      let t0 = now () in
      let result = try Ok (request input) with e -> Error e in
      let dt = now () -. t0 in
      let peak = peak_rss_mb () in
      incr attempted;
      (match result with
       | Ok v -> check i input v
       | Error e -> fail "request %d raised %s" i (Printexc.to_string e));
      go (i + 1) (spent +. dt) dt ((dt *. 1e3) :: acc) (peak :: rss)
    end
  in
  go 0 0.0 0.0 [] []

(* Set up [n] times; the result of the last set-up is kept, and the
   median set-up time is what [setup_s] reports. *)
let repeat_setup n f =
  let rec go i times last =
    if i = n then (Option.get last, median times)
    else
      let r, dt = time (fun () -> f i) in
      go (i + 1) (dt :: times) (Some r)
  in
  go 0 [] None

(* Words allocated by each call of the jobs=1 layer pass: minor words
   exactly, for the calling domain ([Gc.minor_words]), major words as
   [Gc.quick_stat] counts them.  Summed per name, in millions. *)
let gc_words : (string, float * float) Hashtbl.t = Hashtbl.create 16

let layer_call name f =
  let m0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_words in
  let r = Trace.span name f in
  let minor = Gc.minor_words () -. m0 and major = (Gc.quick_stat ()).Gc.major_words -. g0 in
  let mi, ma = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt gc_words name) in
  Hashtbl.replace gc_words name (mi +. (minor /. 1e6), ma +. (major /. 1e6));
  r

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let work_dir = ".adbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec dir_bytes path =
  match Sys.is_directory path with
  | true ->
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A directory of this run's own, removed at exit, so that concurrent
   benchmark processes never share a cache store. *)
let run_dir =
  lazy
    (ensure_dir work_dir;
     let rng = Random.State.make_self_init () in
     let d =
       Filename.concat work_dir
         (Printf.sprintf "run-%d-%08x" (Unix.getpid ()) (Random.State.bits rng))
     in
     Unix.mkdir d 0o755;
     at_exit (fun () -> rm_rf d);
     (* Interrupted runs clean up too: [exit] runs the [at_exit] hooks. *)
     List.iter
       (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
       [ Sys.sigint; Sys.sigterm ];
     d)

(* ------------------------------------------------------------------ *)
(* Calls into adcheck                                                   *)
(* ------------------------------------------------------------------ *)

(* Observation 12's open/closed library ratios, as [adcheck audit]
   passes them. *)
let gpu_ratios () =
  let d = Gpuperf.Device.titan_v in
  Gpuperf.Suites.gemm_comparison ~device:d
  @ List.map (fun (l, _, r) -> (l, r)) (Gpuperf.Suites.conv_comparison ~device:d)

(* [f]'s result and the minor words [Gc.quick_stat] counts while it
   runs: the counter the program's GC phases read. *)
let with_stat_minor_words f =
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let r = f () in
  (r, (Gc.quick_stat ()).Gc.minor_words -. w0)

(* Those words for the latest [Audit.run]. *)
let audit_run_words = ref 0.0

(* One audit request: from the call into [Audit.run] until the report
   and the evidence journal are in memory. *)
let audit_op ~seed ~specs ~ratios project =
  let a, words =
    with_stat_minor_words (fun () ->
        Trace.span "audit.run" (fun () ->
            Audit.run ~seed ~specs ~open_vs_closed:ratios ~project ()))
  in
  audit_run_words := words;
  let report = Trace.span "report.render" (fun () -> Audit.render a) in
  let journal = Trace.span "provenance.journal" Provenance.journal in
  (a, report, journal)

let digest (_, report, journal) =
  Digest.to_hex (Digest.string report) ^ "/" ^ Digest.to_hex (Digest.string journal)

let violations ((a : Audit.t), _, _) =
  float_of_int a.Audit.metrics.PM.misra.Misra.Registry.total_violations

(* Program telemetry, read through its public interface. *)
let span_total_ms name =
  List.fold_left
    (fun acc (n, _, total_us, _) -> if n = name then acc +. (total_us /. 1e3) else acc)
    0.0 (Telemetry.span_summary ())

let set_counters ?(per = 1.0) since names =
  List.iter
    (fun n ->
      set n (float_of_int (Option.value ~default:0 (List.assoc_opt n since)) /. per))
    names

let set_pool_metrics ~wall_ms =
  match Util.Pool.global_stats () with
  | None -> ()
  | Some st ->
    let busy = List.map (fun (_, _, b) -> b /. 1e3) st.Util.Pool.st_workers in
    let busy_total = sum busy in
    let jobs = float_of_int st.Util.Pool.st_jobs in
    let bmax = List.fold_left Float.max 0.0 busy in
    let bmin = List.fold_left Float.min infinity busy in
    let submitted = float_of_int st.Util.Pool.st_submitted in
    let inline = float_of_int st.Util.Pool.st_inline in
    set "pool.jobs" jobs;
    set "pool.submitted" submitted;
    set "pool.inline" inline;
    set "pool.inline_share" (ratio inline submitted);
    set "pool.busy_ms" busy_total;
    set "pool.wall_ms" wall_ms;
    set "pool.parallel_efficiency" (ratio busy_total (wall_ms *. jobs));
    set "pool.busy_max_ms" bmax;
    set "pool.busy_min_ms" bmin;
    set "pool.busy_imbalance" (ratio bmax bmin);
    set "pool.queue_wait_us_p50" (Util.Histogram.p50 st.Util.Pool.st_queue_wait);
    set "pool.queue_wait_us_p90" (Util.Histogram.p90 st.Util.Pool.st_queue_wait)

(* Start the global pool afresh at [jobs], so its statistics cover only
   what runs from here on. *)
let fresh_pool jobs =
  Util.Pool.set_default_jobs 1;
  Util.Pool.set_default_jobs jobs;
  ignore (Util.Pool.global ())

let phase_minor_words () =
  sum (List.map (fun (_, d) -> d.Telemetry.gd_minor_words) (Telemetry.gc_phases ()))

let set_gc layer_name call_names =
  let words = List.filter_map (fun n -> Hashtbl.find_opt gc_words n) call_names in
  set (layer_name ^ ".minor_mwords") (sum (List.map fst words));
  set (layer_name ^ ".major_mwords") (sum (List.map snd words))

(* A standalone probe: one timed call. *)
let set_probe name f =
  let _, dt = time (fun () -> layer_call name f) in
  set (name ^ "_ms") (dt *. 1e3)

(* Work ratios, with their bases, and standalone probes over one parsed
   tree; the counters they divide must be set first. *)
let set_tree_metrics (parsed : Cfront.Project.parsed) =
  let funcs = float_of_int (List.length (Cfront.Project.all_functions parsed)) in
  let get name = Option.value ~default:0.0 (Hashtbl.find_opt layer name) in
  set "program.functions" funcs;
  set "dataflow.cfg_reuse" (ratio (get "dataflow.functions") (get "dataflow.cfgs"));
  set "interproc.summary_reuse" (ratio funcs (get "interproc.functions"));
  set_probe "cfront.callgraph" (fun () ->
      Cfront.Callgraph.build (Cfront.Project.all_functions parsed));
  set_probe "metrics.architecture" (fun () -> Metrics.Architecture.build ~parsed)

let corpus_bytes (p : Cfront.Project.t) =
  List.fold_left
    (fun acc (f : Cfront.Project.source_file) -> acc + String.length f.Cfront.Project.content)
    0 (Cfront.Project.all_files p)

(* ------------------------------------------------------------------ *)
(* audit-full                                                           *)
(* ------------------------------------------------------------------ *)

(* The jobs=1 oracle's digest is a function of the program and its
   input only, so it is kept in [work_dir] under the digest of this
   executable and the corpus seed, and computed once per build. *)
let cached_oracle ~corpus_seed compute =
  ensure_dir work_dir;
  let path =
    Filename.concat work_dir
      (Printf.sprintf "oracle-audit-full-%d-%s" corpus_seed
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | d -> d
  | exception Sys_error _ ->
    let d = compute () in
    let tmp = path ^ Printf.sprintf ".%d.tmp" (Unix.getpid ()) in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc d);
    Sys.rename tmp path;
    d

let audit_full ~corpus_seed ~seconds ~trace =
  let seed = corpus_seed in
  let specs = Corpus.Apollo_profile.full and ratios = gpu_ratios () in
  (* Set-up, as [adcheck audit --jobs 2] does it: start the jobs=2 pool
     and generate the corpus on it. *)
  let project, setup_s =
    repeat_setup 50 (fun _ ->
        fresh_pool 2;
        Corpus.Generator.generate ~seed specs)
  in
  let audit project = audit_op ~seed ~specs ~ratios project in
  let work_counters = [ "dataflow.cfgs"; "dataflow.functions"; "interproc.functions" ] in
  if not trace then begin
    let digests = ref [] in
    let lat, rss =
      closed_loop ~seconds
        ~prepare:(fun _ -> project)
        ~request:audit
        ~check:(fun _ _ v ->
          digests := digest v :: !digests;
          set "misra.violations" (violations v);
          check_baseline ~corpus_seed [ "misra.violations" ])
    in
    (* The oracle: a cold audit at jobs=1. *)
    Util.Pool.set_default_jobs 1;
    let oracle = cached_oracle ~corpus_seed (fun () -> digest (audit project)) in
    List.iteri
      (fun i d -> if d <> oracle then fail "audit %d differs from the jobs=1 oracle" i)
      (List.rev !digests);
    say "audit_s               %12.4f s   (median of %d)" (median lat /. 1e3) (List.length lat);
    say "oracle                report and journal == cold jobs=1 audit";
    [ ("op_ms_p50", median lat); ("op_ms_p75", quantile lat 0.75); ("setup_s", setup_s);
      ("peak_rss_mb", rss) ]
  end
  else begin
    (* 1. The pipelined audit at jobs=2 with the program's telemetry on:
       phase spans, per-rule spans, work counters and pool statistics. *)
    Telemetry.set_enabled true;
    Telemetry.reset ();
    fresh_pool 2;
    Gc.full_major ();
    let v2, t2 = time (fun () -> Trace.request "audit.j2.traced" (fun () -> audit project)) in
    let j2_ms = t2 *. 1e3 in
    set_counters (Telemetry.counters ()) ("dataflow.transfers" :: work_counters);
    set "misra.violations" (violations v2);
    check_baseline ~corpus_seed ("misra.violations" :: work_counters);
    let phases_j2 = Telemetry.gc_phases () in
    set "gc.phase_sum_ratio_j2" (ratio (phase_minor_words ()) !audit_run_words);
    set_pool_metrics ~wall_ms:j2_ms;
    let phases = [ "misra"; "dataflow"; "metrics"; "coverage.yolo"; "coverage.stencil" ] in
    (match
       List.filter (fun e -> List.mem e.Telemetry.ev_name phases) (Telemetry.events ())
       |> List.map (fun e -> (e.Telemetry.ev_start_us +. e.Telemetry.ev_dur_us, e.Telemetry.ev_name))
       |> List.sort compare |> List.rev
     with
     | (_, name) :: _ -> say "critical phase (j2)   %s (last to finish before assess)" name
     | [] -> ());
    let d2 = digest v2 in
    Telemetry.write_chrome_trace
      ~path:(Filename.concat work_dir (Printf.sprintf "audit-full-j2-%d.trace.json" seed));
    (* 2. The same audit untraced: the recorder's overhead. *)
    Telemetry.set_enabled false;
    Gc.full_major ();
    let d2u, t2u = time (fun () -> digest (audit project)) in
    set "telemetry.traced_ms" j2_ms;
    set "telemetry.untraced_ms" (t2u *. 1e3);
    set "telemetry.overhead_ratio" (ratio j2_ms (t2u *. 1e3));
    (* 3. A traced cold audit at jobs=1: the oracle, and the other side
       of the GC comparison. *)
    Util.Pool.set_default_jobs 1;
    Telemetry.set_enabled true;
    Telemetry.reset ();
    Gc.full_major ();
    let v1, t1 = time (fun () -> audit project) in
    let oracle = digest v1 in
    set "gc.phase_sum_ratio_j1" (ratio (phase_minor_words ()) !audit_run_words);
    List.iter
      (fun (name, d1) ->
        match List.assoc_opt name phases_j2 with
        | Some d2 ->
          say "gc phase %-16s minor %9.2f Mwords at jobs=1, %9.2f at jobs=2" name
            (d1.Telemetry.gd_minor_words /. 1e6) (d2.Telemetry.gd_minor_words /. 1e6)
        | None -> ())
      (Telemetry.gc_phases ());
    set "audit.j1_ms" (t1 *. 1e3);
    set "audit.j2_ms" j2_ms;
    set "audit.speedup_j2" (ratio t1 t2);
    attempted := !attempted + 3;
    if d2 <> oracle then fail "traced jobs=2 audit differs from the jobs=1 oracle";
    if d2u <> oracle then fail "untraced jobs=2 audit differs from the jobs=1 oracle";
    (* 4. Each layer's public function in pipeline order at jobs=1. *)
    Telemetry.reset ();
    Provenance.reset ();
    let project =
      layer_call "corpus.generate" (fun () -> Corpus.Generator.generate ~seed specs)
    in
    let parsed = layer_call "cfront.parse" (fun () -> Cfront.Project.parse project) in
    let misra = layer_call "misra.run" (fun () -> PM.misra_of_parsed parsed) in
    let module_dataflow =
      layer_call "dataflow.run" (fun () -> PM.module_dataflow_of_parsed parsed)
    in
    let metrics =
      layer_call "metrics.walk" (fun () ->
          PM.of_parsed_with ~misra:(fun () -> misra) ~module_dataflow parsed)
    in
    let yolo_coverage, yolo_run_output, _ = layer_call "cudasim.yolo" Audit.run_yolo_coverage in
    let stencil_coverage, _ = layer_call "cudasim.stencil" Audit.run_stencil_coverage in
    let coding, architecture, unit_design, observations =
      layer_call "assess" (fun () ->
          ( Iso26262.Assess.assess_coding metrics,
            Iso26262.Assess.assess_architecture metrics,
            Iso26262.Assess.assess_unit_design metrics,
            Iso26262.Observations.of_metrics metrics ~yolo_coverage ~stencil_coverage
              ~open_vs_closed:ratios ))
    in
    let journal = layer_call "provenance.findings" Provenance.findings in
    let a =
      { Audit.parsed; metrics; coding; architecture; unit_design; yolo_coverage;
        yolo_run_output; stencil_coverage; observations; journal }
    in
    ignore (layer_call "report.render" (fun () -> Audit.render a));
    ignore (layer_call "provenance.journal" Provenance.journal);
    List.iter
      (fun r -> set ("misra.rule." ^ r ^ "_ms") (span_total_ms ("misra.rule." ^ r)))
      probed_rules;
    (* Standalone probes of what the pipeline calls from inside. *)
    set_probe "interproc.analyze" (fun () -> Interproc.Summary.analyze parsed);
    set_probe "cfront.scan_types" (fun () ->
        Cfront.Project.scan_type_names (Cfront.Project.all_files project));
    set_tree_metrics parsed;
    set "corpus.generate_ms" (Trace.mean_ms "corpus.generate");
    let parse_ms = Trace.mean_ms "cfront.parse" in
    set "cfront.parse_ms" parse_ms;
    set "cfront.parse_mb_per_s" (ratio (float_of_int (corpus_bytes project) /. 1e6) (parse_ms /. 1e3));
    set "misra.run_ms" (Trace.mean_ms "misra.run");
    set "dataflow.run_ms" (Trace.mean_ms "dataflow.run");
    set "metrics.walk_ms" (Trace.mean_ms "metrics.walk");
    set "assess.ms" (Trace.mean_ms "assess");
    set "report.render_ms" (Trace.mean_ms "report.render");
    set "provenance.journal_ms" (Trace.mean_ms "provenance.journal");
    set "cudasim.yolo_ms" (Trace.mean_ms "cudasim.yolo");
    set "cudasim.stencil_ms" (Trace.mean_ms "cudasim.stencil");
    List.iter
      (fun (l, calls) -> set_gc l calls)
      [ ("parse", [ "cfront.parse" ]); ("misra", [ "misra.run" ]);
        ("dataflow", [ "dataflow.run" ]); ("interproc", [ "interproc.analyze" ]);
        ("metrics", [ "metrics.walk" ]); ("assess", [ "assess" ]);
        ("coverage", [ "cudasim.yolo"; "cudasim.stencil" ]) ];
    if metrics.PM.misra.Misra.Registry.total_violations <> int_of_float (violations v2) then
      fail "layer pass MISRA count differs from the audit's";
    []
  end

(* ------------------------------------------------------------------ *)
(* incremental-edit / incremental-warm                                  *)
(* ------------------------------------------------------------------ *)

(* The file request [i] edits: the [(seed + i) mod n]-th of the
   project's [n] .cc files in path order, so every run edits each file
   in turn and its latencies do not hang on one file's size. *)
let edit_target ~seed project i =
  let ccs =
    Cfront.Project.all_files project
    |> List.filter (fun (f : Cfront.Project.source_file) ->
           (not f.Cfront.Project.header) && Filename.check_suffix f.Cfront.Project.path ".cc")
    |> List.map (fun (f : Cfront.Project.source_file) -> f.Cfront.Project.path)
    |> List.sort compare
  in
  let n = List.length ccs in
  List.nth ccs ((((seed + i) mod n) + n) mod n)

(* Edit [k] appends a function returning [k] to [path]: every edit is
   new content, so it is never served from the store. *)
let with_edit (p : Cfront.Project.t) path k =
  let edit (f : Cfront.Project.source_file) =
    if f.Cfront.Project.path <> path then f
    else
      { f with
        Cfront.Project.content =
          f.Cfront.Project.content
          ^ Printf.sprintf "\nint adbench_edit_probe() { return %d; }\n" k }
  in
  { p with
    Cfront.Project.p_modules =
      List.map
        (fun (m : Cfront.Project.modul) ->
          { m with Cfront.Project.m_files = List.map edit m.Cfront.Project.m_files })
        p.Cfront.Project.p_modules }

let incremental ~kind ~corpus_seed ~seed ~seconds ~trace =
  let specs = Corpus.Apollo_profile.small and ratios = gpu_ratios () in
  Util.Pool.set_default_jobs 1;
  let audit project = audit_op ~seed:corpus_seed ~specs ~ratios project in
  let dir = Lazy.force run_dir in
  let store_dir i = Filename.concat dir (Printf.sprintf "store-%d" i) in
  (* Set-up: generate the corpus, open a fresh store, prime it with one
     cold cached audit. *)
  let generate_s = ref [] in
  let (store, project, primed, prime_s), setup_s =
    repeat_setup 3 (fun i ->
        let project, dt =
          time (fun () -> Corpus.Generator.generate ~seed:corpus_seed specs)
        in
        generate_s := dt :: !generate_s;
        let store = Cache.open_dir (store_dir i) in
        Cache.set_global (Some store);
        let v, dt = time (fun () -> audit project) in
        (store, project, digest v, dt))
  in
  List.iter (fun i -> rm_rf (store_dir i)) [ 0; 1 ];
  (* Every artifact the primed audit looked up; each later request looks
     up as many. *)
  let artifacts =
    let s = Cache.stats store in
    s.Cache.hits + s.Cache.misses
  in
  (* A cold audit without the cache, at jobs=1: the oracle. *)
  let cold project =
    let was = Telemetry.enabled () in
    Telemetry.set_enabled false;
    Cache.set_global None;
    Fun.protect
      ~finally:(fun () ->
        Cache.set_global (Some store);
        Telemetry.set_enabled was)
      (fun () -> time (fun () -> digest (audit project)))
  in
  let cold_primed, uncached_s = cold project in
  incr attempted;
  if cold_primed <> primed then fail "primed cached audit differs from the cold no-cache audit";
  let edited i = with_edit project (edit_target ~seed project i) (i + 1) in
  let rng = Random.State.make [| seed |] in
  let sampled = ref [] in
  let hits = ref [] and misses = ref [] in
  let last = ref None in
  Telemetry.set_enabled trace;
  Telemetry.reset ();
  let c0 = Telemetry.snapshot_counters () in
  let bytes0 = dir_bytes (Cache.dir store) in
  let lat, rss =
    closed_loop ~seconds
      ~prepare:(fun i ->
        let tree = match kind with `Edit -> edited i | `Warm -> project in
        (tree, Cache.stats store))
      ~request:(fun (tree, _) -> Trace.request "request" (fun () -> audit tree))
      ~check:(fun i (_, s0) v ->
        let s1 = Cache.stats store in
        let h = s1.Cache.hits - s0.Cache.hits and m = s1.Cache.misses - s0.Cache.misses in
        hits := float_of_int h :: !hits;
        misses := float_of_int m :: !misses;
        let a, _, _ = v in
        last := Some a;
        match kind with
        | _ when h + m <> artifacts ->
          fail "request %d looked up %d artifacts, the primed audit %d" i (h + m) artifacts
        | `Warm when m <> 0 -> fail "warm request %d missed the cache %d times" i m
        | `Warm -> if digest v <> primed then fail "warm request %d differs from the primed audit" i
        | `Edit ->
          (* The first edit and a seeded sample of the others are checked
             against a cold no-cache audit of the same edited tree, after
             the loop. *)
          if i = 0 || (List.length !sampled < 4 && Random.State.int rng 8 = 0) then
            sampled := (i, digest v) :: !sampled)
  in
  List.iter
    (fun (i, d) ->
      if fst (cold (edited i)) <> d then fail "edit %d differs from a cold audit of the edited tree" i)
    (List.rev !sampled);
  let n = float_of_int (List.length lat) in
  let name = match kind with `Edit -> "edit" | `Warm -> "warm" in
  say "%s_ms_p50          %12.4f ms  (%d requests)" name (median lat) (List.length lat);
  say "%s_ms_p75          %12.4f ms" name (quantile lat 0.75);
  say "cache per request     %.1f hits, %.1f misses (mean) of %d artifacts" (mean !hits)
    (mean !misses) artifacts;
  if kind = `Edit then say "edited files          from %s on, in path order" (edit_target ~seed project 0);
  say "oracle                %s"
    (match kind with
     | `Warm -> "every request == primed audit == cold no-cache audit, 0 misses"
     | `Edit ->
       Printf.sprintf "%d sampled edits == cold no-cache audit of the edited tree"
         (List.length !sampled));
  if trace then begin
    let since = Telemetry.counters_since c0 in
    set_counters ~per:n since
      [ "dataflow.cfgs"; "dataflow.functions"; "dataflow.transfers"; "interproc.functions" ];
    (match kind with
     | `Edit ->
       let h = mean !hits and m = mean !misses in
       set "cache.hits_per_edit" h;
       set "cache.misses_per_edit" m;
       set "cache.artifacts_per_edit" (h +. m);
       set "cache.edit_hit_ratio" (ratio h (h +. m));
       set "cache.store_bytes_per_edit"
         (float_of_int (dir_bytes (Cache.dir store) - bytes0) /. n);
       check_baseline ~corpus_seed [ "cache.hits_per_edit"; "cache.misses_per_edit" ]
     | `Warm ->
       set "cache.hits_per_warm" (mean !hits);
       set "cache.misses_per_warm" (mean !misses);
       check_baseline ~corpus_seed [ "cache.misses_per_warm" ]);
    set "cache.prime_ms" (prime_s *. 1e3);
    set "cache.uncached_ms" (uncached_s *. 1e3);
    set "cache.prime_overhead" (ratio prime_s uncached_s);
    let per span = span_total_ms span /. n in
    set "cfront.parse_ms" (per "parse");
    set "cfront.scan_types_ms" (per "parse.scan_types");
    set "cfront.parse_mb_per_s"
      (ratio (float_of_int (corpus_bytes project) /. 1e6) (per "parse" /. 1e3));
    set "misra.run_ms" (per "misra");
    List.iter (fun r -> set ("misra.rule." ^ r ^ "_ms") (per ("misra.rule." ^ r))) probed_rules;
    set "dataflow.run_ms" (per "dataflow");
    set "interproc.analyze_ms" (per "interproc");
    (* At jobs=1 the MISRA run happens inside the "metrics" span. *)
    set "metrics.walk_ms" (per "metrics" -. per "misra");
    set "assess.ms" (per "audit.assess");
    set "report.render_ms" (Trace.mean_ms "report.render");
    set "provenance.journal_ms" (Trace.mean_ms "provenance.journal");
    set "corpus.generate_ms" (median !generate_s *. 1e3);
    match !last with
    | None -> ()
    | Some a ->
      set "misra.violations" (float_of_int a.Audit.metrics.PM.misra.Misra.Registry.total_violations);
      set_probe "cache.manifest" (fun () -> Audit.manifest_of_parsed a.Audit.parsed);
      set_tree_metrics a.Audit.parsed
  end;
  Cache.set_global None;
  [ ("op_ms_p50", median lat); ("op_ms_p75", quantile lat 0.75); ("setup_s", setup_s);
    ("peak_rss_mb", rss) ]

(* ------------------------------------------------------------------ *)
(* coverage-campaign                                                    *)
(* ------------------------------------------------------------------ *)

(* One campaign: build the scenario set, run it on the bytecode engine,
   score the merged coverage. *)
let campaign () =
  let set = Trace.span "coverage.set_build" Corpus.Scenario_set.full in
  let outcomes =
    Trace.span "coverage.run_all" (fun () ->
        Scenario.run_all ~engine:Scenario.Bytecode set.Corpus.Scenario_set.scenarios)
  in
  let cov =
    Trace.span "coverage.score" (fun () ->
        Scenario.score
          (Scenario.merged_collector outcomes)
          ~measured:set.Corpus.Scenario_set.measured set.Corpus.Scenario_set.tus)
  in
  (set, outcomes, cov)

let coverage_digest (_, _, cov) =
  Digest.to_hex (Digest.string (Iso26262.Report.render_coverage ~title:"" cov))

let fingerprint outcomes = Coverage.Collector.fingerprint (Scenario.merged_collector outcomes)

let coverage_campaign ~seconds ~trace =
  (* Set-up: start the jobs=2 pool and run one campaign, which also
     fixes the per-file coverage every later campaign must reproduce. *)
  let first, setup_s =
    repeat_setup 5 (fun _ ->
        fresh_pool 2;
        campaign ())
  in
  let reference = coverage_digest first in
  (* Once per run: the tree-walker oracle over the same scenario set. *)
  let scenarios, bc_outcomes, cov = first in
  let run_all engine = Scenario.run_all ~engine scenarios.Corpus.Scenario_set.scenarios in
  incr attempted;
  if fingerprint (run_all Scenario.Tree) <> fingerprint bc_outcomes then
    fail "bytecode merged fingerprint differs from the tree-walker oracle";
  if trace then begin
    Telemetry.set_enabled true;
    (* The set build runs scenarios on the tree-walker too; the slowest
       scenario is read from one bytecode run of its own. *)
    Telemetry.reset ();
    ignore (run_all Scenario.Bytecode);
    set "coverage.slowest_scenario_ms"
      (List.fold_left
         (fun acc (name, h) ->
           if String.starts_with ~prefix:"coverage.scenario_us." name then
             Float.max acc (Util.Histogram.max_value h /. 1e3)
           else acc)
         0.0 (Telemetry.histograms ()));
    Telemetry.reset ();
    fresh_pool 2
  end;
  let steps = ref [] in
  let lat, rss =
    closed_loop ~seconds
      ~prepare:(fun _ -> ())
      ~request:(fun () -> Trace.request "campaign" campaign)
      ~check:(fun i () v ->
        let _, outcomes, _ = v in
        steps := float_of_int (List.fold_left (fun acc o -> acc + o.Scenario.o_steps) 0 outcomes) :: !steps;
        if coverage_digest v <> reference then
          fail "campaign %d coverage differs from the first campaign's" i)
  in
  let stmt, branch, mcdc = Coverage.Collector.averages cov in
  say "campaign_ms_p50       %12.4f ms  (%d campaigns)" (median lat) (List.length lat);
  say "campaign_ms_p75       %12.4f ms" (quantile lat 0.75);
  say "coverage              %.2f / %.2f / %.2f %% (statement / branch / MC/DC)" stmt branch mcdc;
  say "oracle                every campaign == first; bytecode == tree-walker fingerprint";
  if trace then begin
    set_pool_metrics ~wall_ms:(sum lat);
    set "coverage.set_build_ms" (Trace.mean_ms "coverage.set_build");
    set "coverage.run_all_ms" (Trace.mean_ms "coverage.run_all");
    set "coverage.score_ms" (Trace.mean_ms "coverage.score");
    set "coverage.steps" (mean !steps);
    set_probe "cudasim.yolo" Audit.run_yolo_coverage;
    set_probe "cudasim.stencil" Audit.run_stencil_coverage;
    (* Allocation of one campaign, measured at jobs=1 where one domain
       does all the work. *)
    Util.Pool.set_default_jobs 1;
    Gc.full_major ();
    ignore (layer_call "coverage.campaign.j1" campaign);
    set_gc "coverage" [ "coverage.campaign.j1" ]
  end;
  [ ("op_ms_p50", median lat); ("op_ms_p75", quantile lat 0.75); ("setup_s", setup_s);
    ("peak_rss_mb", rss) ]

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let workloads = [ "audit-full"; "incremental-edit"; "incremental-warm"; "coverage-campaign" ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let usage () =
  Printf.eprintf
    "usage: adbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1] \
     [--corpus-seed N]\n"
    (String.concat "|" workloads);
  exit 2

let () =
  let workload = ref None and seed = ref 2019 and corpus_seed = ref 2019 in
  let seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string n;
      parse rest
    | "--corpus-seed" :: n :: rest when int_of_string_opt n <> None ->
      corpus_seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun x -> x > 0.0) (float_of_string_opt s) ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  let seed = !seed and corpus_seed = !corpus_seed and seconds = !seconds and trace = !trace in
  let e2e =
    match workload with
    | "audit-full" -> audit_full ~corpus_seed ~seconds ~trace
    | "incremental-edit" -> incremental ~kind:`Edit ~corpus_seed ~seed ~seconds ~trace
    | "incremental-warm" -> incremental ~kind:`Warm ~corpus_seed ~seed ~seconds ~trace
    | _ -> coverage_campaign ~seconds ~trace
  in
  Util.Pool.set_default_jobs 1;
  Printf.printf "adbench %s seed=%d corpus-seed=%d seconds=%g trace=%d\n" workload seed
    corpus_seed seconds
    (if trace then 1 else 0);
  List.iter print_endline (List.rev !lines);
  Printf.printf "ops_failed_frac       %12.4f     (%d of %d)\n"
    (ratio (float_of_int !failed) (float_of_int !attempted))
    !failed !attempted;
  let shown, values =
    if trace then begin
      ensure_dir work_dir;
      let path = Filename.concat work_dir (Printf.sprintf "%s-%d.trace.json" workload seed) in
      Telemetry.write_chrome_trace ~path;
      Printf.printf "spans (benchmark-side, %s)\n" path;
      List.iter
        (fun (name, (n, total, self)) ->
          Printf.printf "  %-26s %5d  total %12.3f ms  self %12.3f ms\n" name n total self)
        (Trace.summary ());
      (per_layer, List.map (fun (n, _) -> (n, Option.value ~default:0.0 (Hashtbl.find_opt layer n))) per_layer)
    end
    else (end_to_end, e2e)
  in
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-32s %16.4f %s\n" name (List.assoc name values) unit)
    shown;
  let field (name, unit) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
      (json_number (List.assoc name values)) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !attempted > 0)
    !attempted !failed
    (String.concat ", " (List.map field shown))
