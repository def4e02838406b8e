(* Tests for the domain pool: order preservation under map_chunked,
   exception propagation out of workers, nested fan-out drained by
   helping awaits, the jobs bound on tasks running at once, jobs=1
   equivalence with the sequential code path, task contexts (a task's
   counters and findings merge once, through its own future), and a
   stress run of many tiny tasks across several domains. *)

let with_pool ~jobs f =
  let pool = Util.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Order preservation                                                   *)
(* ------------------------------------------------------------------ *)

let test_map_preserves_order () =
  let xs = List.init 257 (fun i -> i) in
  let f x = (x * 7919) mod 65536 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
          List.iter
            (fun chunk_size ->
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d chunk=%d" jobs chunk_size)
                expected
                (Util.Pool.map_chunked ~chunk_size pool f xs))
            [ 1; 2; 17; 1000 ];
          (* default chunking too *)
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d default chunking" jobs)
            expected
            (Util.Pool.map_chunked pool f xs)))
    [ 1; 2; 4 ]

let test_map_empty_and_singleton () =
  with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "empty" []
        (Util.Pool.map_chunked pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 42 ]
        (Util.Pool.map_chunked pool (fun x -> x + 1) [ 41 ]))

(* Out-of-order completion: earlier chunks finish *after* later ones
   (front-loaded busy work) and results still come back in input order. *)
let test_map_order_with_skewed_work () =
  let busy n =
    let acc = ref 0 in
    for i = 1 to n * 20_000 do
      acc := (!acc + i) mod 9973
    done;
    !acc
  in
  let xs = [ 8; 6; 4; 2; 0 ] in
  with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "slowest-first input keeps input order"
        (List.map busy xs)
        (Util.Pool.map_chunked ~chunk_size:1 pool busy xs))

(* ------------------------------------------------------------------ *)
(* Exceptions                                                           *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_exception_propagates () =
  with_pool ~jobs:2 (fun pool ->
      let fut = Util.Pool.submit pool (fun () -> raise (Boom 7)) in
      Alcotest.check_raises "submit/await re-raises" (Boom 7) (fun () ->
          ignore (Util.Pool.await fut));
      (* the pool survives a failed task *)
      let fut2 = Util.Pool.submit pool (fun () -> 5) in
      Alcotest.(check int) "pool alive after failure" 5 (Util.Pool.await fut2))

let test_map_chunked_raises_first_failure () =
  with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "map_chunked re-raises" (Boom 3) (fun () ->
          ignore
            (Util.Pool.map_chunked ~chunk_size:1 pool
               (fun x -> if x = 3 then raise (Boom 3) else x)
               [ 0; 1; 2; 3; 4 ])))

(* ------------------------------------------------------------------ *)
(* Nested submit and helping await                                      *)
(* ------------------------------------------------------------------ *)

(* Three levels of map_chunked, each task fanning out again and awaiting
   its children, with more tasks at every level than the pool has
   domains: only awaits that run queued tasks let this drain. *)
let test_nested_map_three_deep () =
  let leaf x = (x * 31) + 7 in
  let xs = List.init 4 Fun.id in
  let expected =
    List.map (fun a ->
        List.map (fun b -> List.map (fun c -> leaf ((a * 100) + (b * 10) + c)) xs) xs)
      xs
  in
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
          let map f = Util.Pool.map_chunked ~chunk_size:1 pool f xs in
          let got =
            map (fun a ->
                map (fun b -> map (fun c -> leaf ((a * 100) + (b * 10) + c))))
          in
          Alcotest.(check (list (list (list int))))
            (Printf.sprintf "jobs=%d nested results" jobs)
            expected got))
    [ 2; 8 ]

(* [~jobs:n] bounds the tasks executing at once, the helping caller
   included.  A task suspended in [await] is not executing, so each task
   leaves the count around its own awaits; the high-water mark is taken
   with a CAS loop. *)
let test_jobs_bounds_concurrency () =
  List.iter
    (fun jobs ->
      let active = Atomic.make 0 in
      let high = Atomic.make 0 in
      let enter () =
        let now = Atomic.fetch_and_add active 1 + 1 in
        let rec raise_high () =
          let h = Atomic.get high in
          if now > h && not (Atomic.compare_and_set high h now) then raise_high ()
        in
        raise_high ()
      in
      let leave () = Atomic.decr active in
      let spin () =
        let acc = ref 0 in
        for i = 1 to 20_000 do
          acc := (!acc + i) mod 7919
        done;
        !acc
      in
      let task pool depth x =
        let rec go depth x =
          enter ();
          let v = spin () + x in
          leave ();
          if depth = 0 then v
          else
            let children =
              Util.Pool.map_chunked ~chunk_size:1 pool (go (depth - 1))
                (List.init 3 (fun i -> v + i))
            in
            enter ();
            let r = List.fold_left ( + ) 0 children in
            leave ();
            r
        in
        go depth x
      in
      with_pool ~jobs (fun pool ->
          let (_ : int list) =
            Util.Pool.map_chunked ~chunk_size:1 pool (task pool 2)
              (List.init 6 Fun.id)
          in
          Alcotest.(check int) (Printf.sprintf "jobs=%d all tasks left" jobs) 0
            (Atomic.get active);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: at most %d tasks at once (saw %d)" jobs
               jobs (Atomic.get high))
            true
            (Atomic.get high >= 1 && Atomic.get high <= jobs)))
    [ 1; 2; 3; 8 ]

exception Helped_boom

(* A task that raises while another domain runs it as help inside an
   unrelated await re-raises at its own await, with the backtrace of the
   raise.  With one worker the interleaving is forced: the worker runs
   [outer], which awaits a child queued behind [failing], so the worker
   can reach [failing] only by helping; the main domain awaits [failing]
   only after it has run. *)
let test_helped_exception_reraises () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  with_pool ~jobs:2 (fun pool ->
      let main = Domain.self () in
      let failing_queued = Atomic.make false in
      let outer_done = Atomic.make false in
      let ran = Atomic.make None in
      let raised_bt = ref "" in
      let outer =
        Util.Pool.submit pool (fun () ->
            while not (Atomic.get failing_queued) do
              Domain.cpu_relax ()
            done;
            let child = Util.Pool.submit pool (fun () -> ()) in
            Util.Pool.await child;
            Atomic.set outer_done true)
      in
      let failing =
        Util.Pool.submit pool (fun () ->
            Atomic.set ran (Some (Domain.self (), Atomic.get outer_done));
            (* backtrace recording is per domain *)
            Printexc.record_backtrace true;
            try raise Helped_boom
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              raised_bt := Printexc.raw_backtrace_to_string bt;
              Printexc.raise_with_backtrace e bt)
      in
      Atomic.set failing_queued true;
      while Atomic.get ran = None do
        Domain.cpu_relax ()
      done;
      (match Atomic.get ran with
       | Some (d, outer_finished) ->
         Alcotest.(check bool) "ran on the worker" true (d <> main);
         Alcotest.(check bool) "ran while the worker's task was awaiting" false
           outer_finished
       | None -> assert false);
      let first_line s = List.hd (String.split_on_char '\n' s) in
      (match Util.Pool.await failing with
       | () -> Alcotest.fail "expected Helped_boom"
       | exception Helped_boom ->
         let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
         Alcotest.(check bool) "task backtrace recorded" true (!raised_bt <> "");
         Alcotest.(check string) "await re-raises with the task's backtrace"
           (first_line !raised_bt) (first_line bt));
      Util.Pool.await outer;
      Alcotest.(check int) "pool alive after the failure" 9
        (Util.Pool.await (Util.Pool.submit pool (fun () -> 9))))

(* Submitting from the main domain while every worker is busy: the
   fan-out pattern of the pipelined audit (phases submitted up front,
   joined later) must not deadlock on a saturated pool, and await_all
   must hand results back in submission order even though completion
   order is whatever the queue drain makes it.  The gate makes the
   saturation deterministic: the test proceeds only once every worker
   is parked inside a blocker task. *)
let test_submit_while_saturated () =
  let jobs = 3 in
  let workers = jobs - 1 in
  with_pool ~jobs (fun pool ->
      let m = Mutex.create () in
      let c = Condition.create () in
      let released = ref false in
      let entered = Atomic.make 0 in
      let gate i =
        Atomic.incr entered;
        Mutex.lock m;
        while not !released do
          Condition.wait c m
        done;
        Mutex.unlock m;
        i * 10
      in
      let blockers =
        List.init workers (fun i -> Util.Pool.submit pool (fun () -> gate i))
      in
      (* wait until every worker is provably parked on the gate *)
      while Atomic.get entered < workers do
        Domain.cpu_relax ()
      done;
      (* the pool is saturated; these submissions must queue, not hang
         the submitter or run at submit time on the main domain *)
      let started = Atomic.make 0 in
      let futs =
        List.init 50 (fun i ->
            Util.Pool.submit pool (fun () ->
                Atomic.incr started;
                i * 3))
      in
      let started_while_saturated = Atomic.get started in
      Mutex.lock m;
      released := true;
      Condition.broadcast c;
      Mutex.unlock m;
      Alcotest.(check int) "queued tasks wait for a free domain" 0
        started_while_saturated;
      Alcotest.(check (list int)) "blocker results in submission order"
        (List.init workers (fun i -> i * 10))
        (Util.Pool.await_all blockers);
      Alcotest.(check (list int)) "queued results in submission order"
        (List.init 50 (fun i -> i * 3))
        (Util.Pool.await_all futs))

(* ------------------------------------------------------------------ *)
(* jobs=1: the sequential oracle                                        *)
(* ------------------------------------------------------------------ *)

let test_jobs1_matches_list_map () =
  let xs = List.init 100 (fun i -> i - 50) in
  let f x = (x * x) - x in
  with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int)) "map_chunked at jobs=1 = List.map"
        (List.map f xs)
        (Util.Pool.map_chunked pool f xs))

(* With the process default at 1 there is no global pool at all, and
   Util.Pool.parallel_map must literally be List.map — counters land in
   the global sink directly, not through a worker-side buffer. *)
let test_default_jobs1_means_no_global_pool () =
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved)
  @@ fun () ->
  Util.Pool.set_default_jobs 1;
  Alcotest.(check bool) "no global pool at jobs=1" true
    (Util.Pool.global () = None);
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false)
  @@ fun () ->
  let ys =
    Util.Pool.parallel_map
      (fun x ->
        Telemetry.incr "pooltest.calls";
        x + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "parallel_map = List.map" [ 2; 3; 4 ] ys;
  Alcotest.(check int) "counters recorded directly" 3
    (Telemetry.counter "pooltest.calls")

let test_default_jobs_clamped () =
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved)
  @@ fun () ->
  Util.Pool.set_default_jobs 0;
  Alcotest.(check int) "0 clamps to 1" 1 (Util.Pool.default_jobs ());
  Util.Pool.set_default_jobs 4;
  Alcotest.(check int) "4 stays 4" 4 (Util.Pool.default_jobs ());
  match Util.Pool.global () with
  | Some pool -> Alcotest.(check int) "global pool sized 4" 4 (Util.Pool.jobs pool)
  | None -> Alcotest.fail "expected a global pool at jobs=4"

(* ------------------------------------------------------------------ *)
(* Task contexts: a task's records merge through its own future         *)
(* ------------------------------------------------------------------ *)

let with_sinks f =
  Telemetry.reset ();
  Provenance.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false;
      Provenance.reset ())
    f

(* One counter increment, one histogram sample and one finding. *)
let record_once msg =
  Telemetry.incr "pooltest.records";
  Telemetry.observe "pooltest.samples" 1.0;
  Provenance.record
    (Provenance.make ~kind:"test" ~analysis:"pool" ~message:msg
       ~witness:[ Provenance.step "site" "%s" msg ]
       ())

let samples () =
  Option.fold ~none:0 ~some:Util.Histogram.count
    (Telemetry.histogram "pooltest.samples")

(* Awaiting a resolved future again returns the same result but merges
   nothing more: the counter, the histogram and the findings that a
   [collect] around both awaits sees are not doubled. *)
let test_await_twice_merges_once () =
  with_sinks @@ fun () ->
  List.iter
    (fun jobs ->
      Telemetry.reset ();
      with_pool ~jobs (fun pool ->
          let fut =
            Util.Pool.submit pool (fun () ->
                record_once "twice";
                7)
          in
          let (a, b), findings =
            Provenance.collect (fun () -> (Util.Pool.await fut, Util.Pool.await fut))
          in
          let label what = Printf.sprintf "%s at jobs=%d" what jobs in
          Alcotest.(check (pair int int)) (label "same result") (7, 7) (a, b);
          Alcotest.(check int) (label "counter merged once") 1
            (Telemetry.counter "pooltest.records");
          Alcotest.(check int) (label "histogram merged once") 1 (samples ());
          Alcotest.(check int) (label "finding merged once") 1
            (List.length findings)))
    [ 1; 2; 4 ]

(* A plain submit on a worker: once the task has run, its records are
   still its own, and its await is what hands them to the sink. *)
let test_submit_merges_at_await () =
  with_sinks @@ fun () ->
  with_pool ~jobs:2 (fun pool ->
      let ran = Atomic.make false in
      let fut =
        Util.Pool.submit pool (fun () ->
            record_once "plain";
            Atomic.set ran true)
      in
      while not (Atomic.get ran) do
        Domain.cpu_relax ()
      done;
      Alcotest.(check int) "no counter before the await" 0
        (Telemetry.counter "pooltest.records");
      Alcotest.(check int) "no finding before the await" 0
        (List.length (Provenance.findings ()));
      Util.Pool.await fut;
      Alcotest.(check int) "counter after the await" 1
        (Telemetry.counter "pooltest.records");
      Alcotest.(check int) "histogram after the await" 1 (samples ());
      Alcotest.(check int) "finding after the await" 1
        (List.length (Provenance.findings ())))

(* ------------------------------------------------------------------ *)
(* Stress                                                               *)
(* ------------------------------------------------------------------ *)

let test_stress_many_tiny_tasks () =
  let n = 10_000 in
  let xs = List.init n (fun i -> i) in
  with_pool ~jobs:8 (fun pool ->
      let ys = Util.Pool.map_chunked ~chunk_size:7 pool (fun x -> x + 1) xs in
      Alcotest.(check int) "all results present" n (List.length ys);
      Alcotest.(check (list int)) "all in order" (List.map succ xs) ys;
      (* interleave raw submits with the map traffic *)
      let futs = List.init 100 (fun i -> Util.Pool.submit pool (fun () -> i)) in
      Alcotest.(check (list int)) "submit storm"
        (List.init 100 Fun.id)
        (List.map Util.Pool.await futs))

(* Telemetry counter merging under contention: every task bumps the same
   counter; the merged total must be exact regardless of interleaving. *)
let test_stress_counter_merge () =
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved)
  @@ fun () ->
  Util.Pool.set_default_jobs 8;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false)
  @@ fun () ->
  let n = 5_000 in
  let ys =
    Util.Pool.parallel_map
      (fun x ->
        Telemetry.incr "pooltest.stress";
        Telemetry.add "pooltest.sum" x;
        x)
      (List.init n (fun i -> i))
  in
  Alcotest.(check int) "results complete" n (List.length ys);
  Alcotest.(check int) "every increment merged" n
    (Telemetry.counter "pooltest.stress");
  Alcotest.(check int) "sums merge exactly" (n * (n - 1) / 2)
    (Telemetry.counter "pooltest.sum")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pool"
    [
      ( "order",
        [
          Alcotest.test_case "map_chunked preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "empty and singleton inputs" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "order kept under skewed work" `Quick
            test_map_order_with_skewed_work;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "worker exception re-raised" `Quick
            test_exception_propagates;
          Alcotest.test_case "map_chunked re-raises" `Quick
            test_map_chunked_raises_first_failure;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "nested map_chunked three deep" `Quick
            test_nested_map_three_deep;
          Alcotest.test_case "jobs bounds tasks running at once" `Quick
            test_jobs_bounds_concurrency;
          Alcotest.test_case "helped task exception re-raised" `Quick
            test_helped_exception_reraises;
          Alcotest.test_case "submit while saturated does not deadlock" `Quick
            test_submit_while_saturated;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "jobs=1 equals List.map" `Quick
            test_jobs1_matches_list_map;
          Alcotest.test_case "default jobs=1 bypasses the pool" `Quick
            test_default_jobs1_means_no_global_pool;
          Alcotest.test_case "default jobs clamping and sizing" `Quick
            test_default_jobs_clamped;
        ] );
      ( "contexts",
        [
          Alcotest.test_case "awaited twice merges once" `Quick
            test_await_twice_merges_once;
          Alcotest.test_case "submit merges at its await" `Quick
            test_submit_merges_at_await;
        ] );
      ( "stress",
        [
          Alcotest.test_case "10k tiny tasks across 8 domains" `Slow
            test_stress_many_tiny_tasks;
          Alcotest.test_case "counter merge is exact" `Slow
            test_stress_counter_merge;
        ] );
    ]
