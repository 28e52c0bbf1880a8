(** Tests for the batch-compilation driver: the first-class pass
    pipeline API, the content-addressed result cache (hit / miss /
    invalidation-on-pipeline-change), the JSON trace schema, and
    parallel determinism (a 4-domain pool produces byte-identical
    results to the sequential path). *)

module D = Mhls_driver.Driver
module Tr = Mhls_driver.Trace
module Pool = Mhls_driver.Pool
module Cache = Mhls_driver.Cache
module K = Workloads.Kernels
module P = Adaptor.Pipeline

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(** A fresh, empty cache directory per test (cleaned first, so stale
    entries from an interrupted run can never fake a hit). *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mhlsc-driver-test-%d" !n)
    in
    rm_rf d;
    d

let small_jobs () =
  [
    D.job ~label:"gemm/baseline" ~kernel:"gemm" K.no_directives;
    D.job ~label:"gemm/pipelined" ~kernel:"gemm" K.pipelined;
    D.job ~label:"conv2d/pipelined" ~kernel:"conv2d" K.pipelined;
  ]

(** QoR rendering excludes wall-clock noise, so two runs of the same
    batch compare byte-for-byte. *)
let qor outcomes =
  D.render_qor
    {
      D.outcomes;
      wall_seconds = 0.0;
      jobs_used = 1;
      cache_hits = 0;
      cache_misses = 0;
    }

(* ------------------------------------------------------------------ *)
(* Pipeline API                                                       *)
(* ------------------------------------------------------------------ *)

let test_pipeline_default () =
  Alcotest.(check (list string))
    "default pass order"
    [
      "legalize-intrinsics"; "eliminate-descriptors"; "typed-pointers";
      "canonicalize-geps"; "translate-metadata"; "lower-interfaces";
    ]
    (P.enabled_names P.default)

let test_pipeline_of_names () =
  (match P.of_names [ "typed-pointers"; "legalize-intrinsics" ] with
  | Ok p ->
      Alcotest.(check (list string))
        "order preserved"
        [ "typed-pointers"; "legalize-intrinsics" ]
        (P.enabled_names p)
  | Error _ -> Alcotest.fail "known names must build");
  match P.of_names [ "no-such-pass" ] with
  | Ok _ -> Alcotest.fail "unknown name must be rejected"
  | Error d ->
      Alcotest.(check string) "HLS-style rule id" "HLS900" d.Support.Diag.rule;
      Alcotest.(check bool)
        "hint lists known passes" true
        (match d.Support.Diag.hint with
        | Some h -> String.length h > 0
        | None -> false)

let test_pipeline_set_enabled () =
  (match P.disable "canonicalize-geps" P.default with
  | Ok p ->
      Alcotest.(check bool)
        "pass dropped from enabled set" false
        (List.mem "canonicalize-geps" (P.enabled_names p));
      Alcotest.(check bool)
        "describe distinguishes the variant" false
        (P.describe p = P.describe P.default)
  | Error _ -> Alcotest.fail "known pass must toggle");
  match P.disable "no-such-pass" P.default with
  | Ok _ -> Alcotest.fail "unknown pass must be a diagnostic"
  | Error d ->
      Alcotest.(check string) "HLS900 on toggle" "HLS900" d.Support.Diag.rule

let test_session_incremental () =
  (* a live session keeps its pool and cache across submissions: the
     second submit of the same jobs is served entirely from cache *)
  let dir = fresh_dir () in
  D.with_session ~cache_dir:dir ~jobs:2 (fun s ->
      let js = small_jobs () in
      let b1 = D.submit_exn s js in
      let b2 = D.submit_exn s js in
      Alcotest.(check int)
        "session counts both submissions"
        (2 * List.length js)
        (D.session_submitted s);
      Alcotest.(check int) "warm submit all hits" (List.length js)
        (D.session_hits s);
      List.iter
        (fun o -> Alcotest.(check bool) "warm outcome cached" true
            o.D.o_from_cache)
        b2;
      Alcotest.(check string) "identical QoR across submissions" (qor b1)
        (qor b2));
  (* a closed session rejects further work with an HLS904 diagnostic,
     not an exception (the unified result-based error convention) *)
  let s = D.create_session ~jobs:1 () in
  D.close_session s;
  D.close_session s;
  (* idempotent *)
  (match D.submit s (small_jobs ()) with
  | Ok _ -> Alcotest.fail "submit after close must be rejected"
  | Error [ d ] ->
      Alcotest.(check string) "closed-session rule" "HLS904"
        d.Support.Diag.rule
  | Error _ -> Alcotest.fail "expected exactly one HLS904 diagnostic");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let dir = fresh_dir () in
  let js = small_jobs () in
  let b1 = D.run_batch ~cache_dir:dir js in
  Alcotest.(check int) "cold run: all misses" (List.length js) b1.D.cache_misses;
  Alcotest.(check int) "cold run: no hits" 0 b1.D.cache_hits;
  List.iter
    (fun o -> Alcotest.(check bool) "cold run computed" false o.D.o_from_cache)
    b1.D.outcomes;
  let b2 = D.run_batch ~cache_dir:dir js in
  Alcotest.(check int) "warm run: all hits" (List.length js) b2.D.cache_hits;
  Alcotest.(check int) "warm run: no misses" 0 b2.D.cache_misses;
  List.iter
    (fun o -> Alcotest.(check bool) "warm run cached" true o.D.o_from_cache)
    b2.D.outcomes;
  Alcotest.(check string)
    "cached QoR identical to computed QoR" (qor b1.D.outcomes)
    (qor b2.D.outcomes);
  List.iter
    (fun (r : Tr.record) ->
      Alcotest.(check bool) "warm trace marked cached" true r.Tr.tr_cached)
    (D.trace_records b2);
  rm_rf dir

let test_cache_invalidation_on_pipeline_change () =
  let dir = fresh_dir () in
  let js = small_jobs () in
  let b1 = D.run_batch ~cache_dir:dir js in
  Alcotest.(check int) "cold misses" (List.length js) b1.D.cache_misses;
  (* same jobs, different pipeline: the pipeline description is part of
     the content address, so nothing may be served from the old run *)
  let p =
    match P.disable "canonicalize-geps" P.default with
    | Ok p -> p
    | Error _ -> Alcotest.fail "known pass"
  in
  let b2 = D.run_batch ~pipeline:p ~cache_dir:dir js in
  Alcotest.(check int)
    "pipeline change misses everything" (List.length js) b2.D.cache_misses;
  Alcotest.(check int) "pipeline change hits nothing" 0 b2.D.cache_hits;
  (* both variants now live side by side *)
  let c = Cache.create ~dir in
  Alcotest.(check int)
    "both variants stored"
    (2 * List.length js)
    (Cache.entry_count c);
  rm_rf dir

let test_cache_key_separator () =
  (* the key must be injective w.r.t. part boundaries *)
  Alcotest.(check bool)
    "no concatenation collision" false
    (Cache.key [ "ab"; "c" ] = Cache.key [ "a"; "bc" ]);
  Alcotest.(check bool)
    "arity matters" false
    (Cache.key [ "a"; "" ] = Cache.key [ "a" ])

(* ------------------------------------------------------------------ *)
(* Trace schema                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_schema_golden () =
  let b = D.run_batch (small_jobs ()) in
  let records = D.trace_records b in
  Alcotest.(check bool) "trace non-empty" true (records <> []);
  let stages =
    List.sort_uniq compare (List.map (fun r -> r.Tr.tr_stage) records)
  in
  Alcotest.(check bool)
    "adaptor stage traced" true
    (List.mem "adaptor" stages);
  Alcotest.(check bool)
    "llvm-opt stage traced" true
    (List.mem "llvm-opt" stages);
  let json = Tr.to_json ~tool:D.tool_version records in
  (match Tr.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "golden trace rejected: %s" e);
  (* every record object carries the full schema in order *)
  Alcotest.(check bool)
    "key order is canonical" true
    (let r = List.hd records in
     let fields = String.concat "" (List.map fst (Tr.record_fields r)) in
     fields
     = "jobkernelflowstagepasssecondsinstrs_beforeinstrs_after"
       ^ "minor_wordsmajor_wordscached")

let test_trace_schema_rejects_malformed () =
  (match Tr.validate "{\"records\": []}" with
  | Ok () -> Alcotest.fail "missing version must be rejected"
  | Error _ -> ());
  (match Tr.validate "{\"version\": 1}" with
  | Ok () -> Alcotest.fail "missing records must be rejected"
  | Error _ -> ());
  let missing_key =
    "{\"version\": 1, \"tool\": \"t\", \"records\": [\n\
    \  {\"job\": \"j\", \"kernel\": \"k\", \"flow\": \"direct-ir\",\n\
    \   \"stage\": \"adaptor\", \"pass\": \"p\", \"seconds\": 0.1,\n\
    \   \"instrs_before\": 1, \"instrs_after\": 1,\n\
    \   \"minor_words\": 0, \"major_words\": 0}\n\
     ]}"
  in
  match Tr.validate missing_key with
  | Ok () -> Alcotest.fail "record lacking 'cached' must be rejected"
  | Error e ->
      Alcotest.(check bool)
        "error names the missing key" true
        (let contains ~needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i =
             i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
           in
           go 0
         in
         contains ~needle:"cached" e)

let test_trace_validate_rejects_near_misses () =
  let records = D.trace_records (D.run_batch (small_jobs ())) in
  let json = Tr.to_json ~tool:D.tool_version records in
  let reject name s =
    match Tr.validate s with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  reject "version 12"
    (Str_find.replace_first json "\"version\": 1," "\"version\": 12,");
  (* to_json ends with "]}\n" *)
  reject "truncated before the closing ]}" (Str_find.drop_last 3 json);
  reject "record with a string seconds"
    (Str_find.set_first_value json "seconds" "\"x\"");
  reject "record with float words"
    (Str_find.set_first_value json "minor_words" "1.5");
  reject "record with an extra key"
    (Str_find.replace_first json "\"cached\": " "\"extra\": 1, \"cached\": ")

let test_trace_roundtrip () =
  let records = D.trace_records (D.run_batch (small_jobs ())) in
  let decoded =
    Result.bind
      (Support.Json.parse (Tr.to_json ~tool:D.tool_version records))
      Tr.of_json
  in
  Alcotest.(check bool) "of_json (parse (to_json rs)) = Ok rs" true
    (decoded = Ok records)

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_preserves_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "map order preserved across 4 domains"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs)

let test_pool_reuses_domains () =
  (* a shut-down pool's worker domains park and the next pool runs on
     them, so opening a session per batch spawns no domain after the
     first; a submitted task's exception surfaces at shutdown *)
  let domains_of p =
    Pool.run p (fun _ -> (Domain.self () :> int)) (List.init 64 Fun.id)
  in
  let a = Pool.create ~jobs:2 () in
  ignore (domains_of a);
  Pool.shutdown a;
  (* domain ids grow with every spawn: any domain spawned from here on
     has an id above the probe's *)
  let probe = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  for _ = 1 to 20 do
    let b = Pool.create ~jobs:2 () in
    let ids = domains_of b in
    Pool.shutdown b;
    Alcotest.(check bool) "no domain spawned" true
      (List.for_all (fun d -> d < probe) ids)
  done;
  let c = Pool.create ~jobs:2 () in
  if Pool.submit c (fun () -> failwith "boom") then
    match Pool.shutdown c with
    | () -> Alcotest.fail "the task's exception must surface at shutdown"
    | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m
  else Pool.shutdown c

(* Spins until [cond ()] holds or [seconds] pass; [true] if it held.
   The pool tests below wait on each other's domains this way, so a
   broken pool fails them instead of hanging the suite. *)
let wait_until ?(seconds = 10.) cond =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Domain.cpu_relax (); go ()))
  in
  go ()

let test_pool_caller_computes () =
  (* a 2-job pool runs its batch on the caller plus one worker: every
     task waits until two distinct domains have taken tasks, so the
     batch cannot finish on whichever domain happens to be first *)
  let want = min 2 (Domain.recommended_domain_count ()) in
  let seen = Atomic.make [] in
  let rec note d =
    let l = Atomic.get seen in
    if not (List.mem d l || Atomic.compare_and_set seen l (d :: l)) then note d
  in
  let p = Pool.create ~jobs:2 () in
  let ids =
    Pool.run p
      (fun _ ->
        let d = (Domain.self () :> int) in
        note d;
        ignore (wait_until (fun () -> List.length (Atomic.get seen) >= want));
        d)
      (List.init 64 Fun.id)
  in
  Pool.shutdown p;
  let distinct = List.sort_uniq compare ids in
  Alcotest.(check int) "distinct domains" want (List.length distinct);
  Alcotest.(check bool) "the caller is one of them" true
    (List.mem (Domain.self () :> int) distinct)

let test_pool_oversubscribed_workers () =
  (* the serve daemon's pool keeps [jobs] dedicated workers: two
     submitted tasks that each wait for the other both get to run *)
  let p = Pool.create ~oversubscribe:true ~jobs:2 () in
  let arrived = Atomic.make 0 and met = Atomic.make 0 in
  let task () =
    Atomic.incr arrived;
    if wait_until (fun () -> Atomic.get arrived = 2) then Atomic.incr met
  in
  Alcotest.(check bool) "submitted" true (Pool.submit p task && Pool.submit p task);
  Pool.shutdown p;
  Alcotest.(check int) "both tasks ran at once" 2 (Atomic.get met)

let test_pool_nested_batch () =
  (* submitted tasks occupy every worker, then each runs a multi-element
     batch on the same pool: the task's own domain works the batch, so
     it completes without a free worker *)
  let p = Pool.create ~oversubscribe:true ~jobs:2 () in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let sums = Array.make 2 0 in
  let task k () =
    Atomic.incr started;
    ignore (wait_until (fun () -> Atomic.get started = 2));
    sums.(k) <- List.fold_left ( + ) 0 (Pool.run p (fun x -> x * x) (List.init 8 Fun.id));
    Atomic.incr finished
  in
  Alcotest.(check bool) "submitted" true (Pool.submit p (task 0) && Pool.submit p (task 1));
  (* shut down only once the batches are known to have finished: a
     deadlocked pool would never let [shutdown] return *)
  let completed = wait_until (fun () -> Atomic.get finished = 2) in
  Alcotest.(check bool) "nested batches completed" true completed;
  Pool.shutdown p;
  Alcotest.(check (array int)) "batch results" [| 140; 140 |] sums

let test_batch_determinism () =
  (* run_batch clamps its worker count to the hardware, so drive the
     pool directly: 4 real domains vs the inline sequential path must
     produce byte-identical QoR, in the same order *)
  let js = D.all_kernel_jobs () in
  let seq = List.map (D.run_job ~pipeline:P.default ~cache:None) js in
  let par = Pool.map ~jobs:4 (D.run_job ~pipeline:P.default ~cache:None) js in
  Alcotest.(check string)
    "4-domain batch byte-identical to sequential" (qor seq) (qor par)

(* ------------------------------------------------------------------ *)
(* Front-end groups                                                   *)
(* ------------------------------------------------------------------ *)

module B = Hls_backend.Backend

(** The full grid: every kernel × {!D.default_grid} × both flows ×
    both schedulers (224 jobs, 112 front-end groups). *)
let full_grid () =
  D.all_kernel_jobs
    ~flows:[ Flow.Direct_ir; Flow.Hls_cpp ]
    ~scheds:[ B.Static; B.Dynamic ] ()

let shuffle seed xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** The per-job computation: each job its own one-member group. *)
let per_job ?(pipeline = P.default) ?cache js =
  List.map (D.run_job ~pipeline ~cache) js

(** An adaptor report without its per-pass wall times. *)
let untimed =
  Option.map (fun r ->
      String.split_on_char '\n' r
      |> List.filter (fun l -> not (String.starts_with ~prefix:"  pass " l))
      |> String.concat "\n")

let check_same_outcomes what (want : D.outcome list) (got : D.outcome list) =
  Alcotest.(check int) (what ^ ": outcome count") (List.length want)
    (List.length got);
  List.iter2
    (fun (w : D.outcome) (g : D.outcome) ->
      let l = w.D.o_job.D.label in
      Alcotest.(check string) (what ^ ": job order") l g.D.o_job.D.label;
      Alcotest.(check bool) (what ^ ": QoR and diagnostics of " ^ l) true
        (w.D.o_qor = g.D.o_qor);
      Alcotest.(check (option string))
        (what ^ ": adaptor report of " ^ l)
        (untimed w.D.o_adaptor) (untimed g.D.o_adaptor))
    want got;
  Alcotest.(check string) (what ^ ": rendered QoR") (qor want) (qor got)

let test_groups_equal_per_job () =
  let js = shuffle 12 (full_grid ()) in
  Alcotest.(check int) "full grid" 224 (List.length js);
  let want = per_job js in
  List.iter
    (fun jobs ->
      D.with_session ~jobs (fun s ->
          check_same_outcomes
            (Printf.sprintf "%d-worker submit" jobs)
            want (D.submit_exn s js)))
    [ 1; 2 ]

let test_groups_halve_frontend_runs () =
  (* the trace evidence for the saving: on a cold grid, every group of
     two runs its front-end once, so the non-cached front-end records
     halve while every job keeps its own estimate *)
  let js = full_grid () in
  let count ~hls outs =
    List.length
      (List.filter
         (fun (r : Tr.record) ->
           (not r.Tr.tr_cached) && (r.Tr.tr_stage = "hls") = hls)
         (List.concat_map (fun (o : D.outcome) -> o.D.o_trace) outs))
  in
  let alone = per_job js in
  let grouped = D.with_session ~jobs:1 (fun s -> D.submit_exn s js) in
  Alcotest.(check int) "front-end records halve"
    (count ~hls:false alone / 2) (count ~hls:false grouped);
  Alcotest.(check bool) "front-end records are even" true
    (count ~hls:false alone mod 2 = 0);
  Alcotest.(check int) "per-job estimates" 224 (count ~hls:true alone);
  Alcotest.(check int) "grouped estimates" 224 (count ~hls:true grouped);
  Alcotest.(check int) "no job served from cache" 0
    (List.length (List.filter (fun (o : D.outcome) -> o.D.o_from_cache) grouped))

let test_mixed_group () =
  (* a cache holding only the static half: static members hit, their
     dynamic siblings compute afresh — and answer as a per-job run does *)
  let js =
    List.filter
      (fun (j : D.job) -> j.D.kernel = "gemm" || j.D.kernel = "fir")
      (full_grid ())
  in
  let static = List.filter (fun (j : D.job) -> j.D.sched = B.Static) js in
  let dir = fresh_dir () in
  D.with_session ~cache_dir:dir (fun s -> ignore (D.submit_exn s static));
  let outs = D.with_session ~cache_dir:dir (fun s -> D.submit_exn s js) in
  List.iter
    (fun (o : D.outcome) ->
      let j = o.D.o_job in
      Alcotest.(check bool) ("provenance of " ^ j.D.label)
        (j.D.sched = B.Static) o.D.o_from_cache;
      if j.D.sched = B.Dynamic then
        Alcotest.(check bool) ("fresh front-end of " ^ j.D.label) true
          (List.for_all (fun (r : Tr.record) -> not r.Tr.tr_cached) o.D.o_trace))
    outs;
  check_same_outcomes "mixed group" (per_job js) outs;
  rm_rf dir

let test_group_failures () =
  (* a strict-adaptor block fails every member of its group with the
     same diagnostics, and an unknown kernel is HLS903 per member —
     exactly as each job alone *)
  let blocked =
    match P.disable "eliminate-descriptors" P.default with
    | Ok p -> p
    | Error d -> Alcotest.fail (Support.Diag.to_string d)
  in
  let js =
    [
      D.job ~kernel:"gemm" K.pipelined;
      D.job ~kernel:"nosuch" K.pipelined;
      D.job ~sched:B.Dynamic ~kernel:"gemm" K.pipelined;
      D.job ~flow:Flow.Hls_cpp ~kernel:"gemm" K.pipelined;
      D.job ~sched:B.Dynamic ~kernel:"nosuch" K.pipelined;
    ]
  in
  let outs =
    D.with_session ~jobs:2 (fun s -> D.submit_exn ~pipeline:blocked s js)
  in
  check_same_outcomes "blocked batch" (per_job ~pipeline:blocked js) outs;
  let rules (o : D.outcome) =
    match o.D.o_qor with
    | Ok _ -> []
    | Error ds -> List.sort_uniq compare (List.map (fun d -> d.Support.Diag.rule) ds)
  in
  Alcotest.(check (list (list string)))
    "diagnostic rules per member"
    [ [ "HLS101"; "HLS102" ]; [ "HLS903" ]; [ "HLS101"; "HLS102" ]; []; [ "HLS903" ] ]
    (List.map rules outs);
  (* a relaxed pipeline lets the same gap through to the backends, which
     reject each member under its own label *)
  let relaxed = P.relaxed blocked in
  let js = List.filter (fun (j : D.job) -> j.D.kernel = "gemm") js in
  let outs = D.with_session (fun s -> D.submit_exn ~pipeline:relaxed s js) in
  check_same_outcomes "rejected batch" (per_job ~pipeline:relaxed js) outs;
  List.iter
    (fun (o : D.outcome) ->
      match (o.D.o_job.D.flow, o.D.o_qor) with
      | Flow.Direct_ir, Error ds ->
          List.iter
            (fun d ->
              Alcotest.(check string) "HLS902" "HLS902" d.Support.Diag.rule;
              Alcotest.(check (option string)) "labelled with its member"
                (Some o.D.o_job.D.label) d.Support.Diag.func)
            ds
      | Flow.Direct_ir, Ok _ -> Alcotest.fail "relaxed gap must be rejected"
      | Flow.Hls_cpp, _ -> ())
    outs

let test_summary_skips_cached () =
  let dir = fresh_dir () in
  let js = small_jobs () in
  ignore (D.run_batch ~cache_dir:dir js);
  let b = D.run_batch ~cache_dir:dir js in
  let n = List.length (D.trace_records b) in
  let table = Tr.summary_table (D.trace_records b) in
  Alcotest.(check bool) "memoised batch reports no runs" true
    (not (Str_find.contains table "| adaptor"));
  Alcotest.(check bool) "cached records on the footer" true
    (Str_find.contains table (Printf.sprintf "cached: %d records reused" n));
  rm_rf dir

let test_batch_report_stats () =
  let b = D.run_batch (small_jobs ()) in
  Alcotest.(check bool)
    "no cache dir reported as disabled" true
    (let s = D.render_stats b in
     let nl = String.length "cache: disabled" and hl = String.length s in
     let rec go i =
       i + nl <= hl && (String.sub s i nl = "cache: disabled" || go (i + 1))
     in
     go 0);
  Alcotest.(check int) "all outcomes present" (List.length (small_jobs ()))
    (List.length b.D.outcomes)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "pipeline default" `Quick test_pipeline_default;
    Alcotest.test_case "pipeline of_names" `Quick test_pipeline_of_names;
    Alcotest.test_case "pipeline set_enabled" `Quick test_pipeline_set_enabled;
    Alcotest.test_case "session incremental submit" `Quick
      test_session_incremental;
    Alcotest.test_case "cache hit miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache invalidation on pipeline change" `Quick
      test_cache_invalidation_on_pipeline_change;
    Alcotest.test_case "cache key separator" `Quick test_cache_key_separator;
    Alcotest.test_case "trace schema golden" `Quick test_trace_schema_golden;
    Alcotest.test_case "trace validate rejects near misses" `Quick
      test_trace_validate_rejects_near_misses;
    Alcotest.test_case "trace JSON round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace schema rejects malformed" `Quick
      test_trace_schema_rejects_malformed;
    Alcotest.test_case "pool preserves order" `Quick test_pool_preserves_order;
    Alcotest.test_case "pool reuses parked domains" `Quick
      test_pool_reuses_domains;
    Alcotest.test_case "pool caller computes" `Quick test_pool_caller_computes;
    Alcotest.test_case "pool oversubscribed keeps jobs workers" `Quick
      test_pool_oversubscribed_workers;
    Alcotest.test_case "pool nested batch from submitted tasks" `Quick
      test_pool_nested_batch;
    Alcotest.test_case "batch determinism" `Quick test_batch_determinism;
    Alcotest.test_case "batch report stats" `Quick test_batch_report_stats;
    Alcotest.test_case "front-end groups equal per-job runs" `Quick
      test_groups_equal_per_job;
    Alcotest.test_case "front-end groups halve front-end runs" `Quick
      test_groups_halve_frontend_runs;
    Alcotest.test_case "front-end group half cached" `Quick test_mixed_group;
    Alcotest.test_case "front-end group failures" `Quick test_group_failures;
    Alcotest.test_case "trace summary skips cached records" `Quick
      test_summary_skips_cached;
  ]
