(** The traced run: the same seeded calls, one by one on a single
    domain, with a span around each call into a layer's public
    functions.  A span records monotonic time, the call count, and the
    Gc minor/major words allocated during the call.  Nothing inside
    the program is instrumented; the per-pass [analysis] events come
    from the [~trace] hook the flows already expose, as they do under
    [Driver.submit].

    Coverage: the sequential [Driver.submit] of the same round, cold
    then warm, is timed untraced; the spans must account for at least
    {!min_coverage} of it, and the rest is [driver.overhead.ms].  The
    spans time the replay, not the program's own calls, so the cold
    phase must also stay below {!max_coverage}: a replay that times a
    step the program no longer takes reads above it.  The warm phase
    is reported but not held to it: its share moves by ten points
    either way from seed to seed (at about 0.1 ms a job, a few major GC
    slices landing on the other side are enough), and a warm job that
    skipped the cache already fails the from-cache check. *)

module K = Workloads.Kernels
module B = Hls_backend.Backend
module D = Mhls_driver.Driver
module Cache = Mhls_driver.Cache

let min_coverage = 0.90

let max_coverage = 1.05

type span = { mutable ms : float; mutable calls : int; mutable minor : float; mutable major : float }

(** A recorder: [span name f] runs [f] inside a span, [note name v]
    adds to a plain counter.  The untraced recorder does neither. *)
type recorder = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  note : string -> float -> unit;
}

let untraced = { span = (fun _ f -> f ()); note = (fun _ _ -> ()) }

let traced (spans : (string, span) Hashtbl.t) (notes : (string, float) Hashtbl.t) :
    recorder =
  let span name f =
    let minor0, _, major0 = Gc.counters () in
    let t0 = Timing.now_ns () in
    let r = f () in
    let dt = Timing.since_s t0 in
    let minor1, _, major1 = Gc.counters () in
    let s =
      match Hashtbl.find_opt spans name with
      | Some s -> s
      | None ->
          let s = { ms = 0.; calls = 0; minor = 0.; major = 0. } in
          Hashtbl.replace spans name s;
          s
    in
    s.ms <- s.ms +. (dt *. 1000.);
    s.calls <- s.calls + 1;
    s.minor <- s.minor +. (minor1 -. minor0);
    s.major <- s.major +. (major1 -. major0);
    r
  in
  let note name v =
    Hashtbl.replace notes name
      (v +. Option.value (Hashtbl.find_opt notes name) ~default:0.)
  in
  { span; note }

let pipeline = Adaptor.Pipeline.default

let ok_or_fail what = function
  | Ok x -> x
  | Error ds ->
      failwith (what ^ ": " ^ String.concat "; " (List.map Support.Diag.to_string ds))

(** One cold job, layer by layer, as [Driver.run_job] would run it on
    an empty cache.  [payload] is the cache entry [Driver.submit] wrote for
    the same job, stored here so the store is timed on identical
    bytes. *)
let cold_job (r : recorder) ~(cache : Cache.t) ~(payload : string) (s : Grid.spec) :
    Grid.qor =
  let j = Grid.job s in
  let key = r.span "driver.cache_key" (fun () -> Option.get (D.cache_key ~pipeline j)) in
  if r.span "driver.cache.find" (fun () -> Cache.find cache key) <> None then
    failwith (Grid.name s ^ ": cold cache hit");
  let k = Option.get (K.by_name s.Grid.kernel) in
  let m = r.span "workloads.build" (fun () -> k.K.build s.Grid.directives) in
  r.span "mhir.verify" (fun () -> Mhir.Verifier.verify_module m);
  let m = r.span "mhir.canonicalize" (fun () -> Mhir.Canonicalize.run m) in
  let hook, events = Support.Tracing.collector () in
  let cleanup lm =
    r.span "llvmir.verify" (fun () -> Llvmir.Lverifier.verify_module lm);
    let lm = r.span "llvmir.cleanup" (fun () -> Flow.llvm_cleanup ~trace:hook lm) in
    r.note "llvmir.cleanup.instrs_out" (float_of_int (Llvmir.Lmodule.instr_count lm));
    lm
  in
  let lm =
    match s.Grid.flow with
    | Flow.Direct_ir ->
        let lm =
          r.span "lowering.lower" (fun () ->
              Lowering.Lower.lower_module ~style:Lowering.Lower.modern m)
        in
        r.note "lowering.instrs_out" (float_of_int (Llvmir.Lmodule.instr_count lm));
        let lm = cleanup lm in
        let lm, report =
          ok_or_fail (Grid.name s)
            (r.span "adaptor.run" (fun () -> Adaptor.run ~pipeline ~trace:hook lm))
        in
        ignore (r.span "adaptor.report" (fun () -> Adaptor.report_to_string report));
        lm
    | Flow.Hls_cpp ->
        let cpp = r.span "hlscpp.emit" (fun () -> Hlscpp.Emit.emit_module m) in
        cleanup (r.span "hlscpp.parse" (fun () -> Hlscpp.Ccodegen.compile cpp))
  in
  let report =
    r.span ("hls_backend." ^ B.sched_name s.Grid.sched) (fun () ->
        B.synthesize ~clock_ns:s.Grid.clock_ns ~sched:s.Grid.sched ~top:k.K.kname lm)
  in
  List.iter
    (fun (e : Support.Tracing.event) ->
      if e.Support.Tracing.ev_stage = "analysis" then
        let p = e.Support.Tracing.ev_pass in
        if String.ends_with ~suffix:":hit" p then r.note "analysis.hits" 1.
        else if String.ends_with ~suffix:":compute" p then
          r.note "analysis.computes" 1.)
    (events ());
  r.span "driver.cache.store" (fun () -> Cache.store cache key payload);
  Grid.qor_of_report report

(** One warm job: the key, the file read and the payload decode that
    [Driver.run_job] does on a hit. *)
let warm_job (r : recorder) ~(cache : Cache.t) (s : Grid.spec) : unit =
  let key =
    r.span "driver.cache_key" (fun () -> Option.get (D.cache_key ~pipeline (Grid.job s)))
  in
  match r.span "driver.cache.find" (fun () -> Cache.find cache key) with
  | None -> failwith (Grid.name s ^ ": warm cache miss")
  | Some bytes ->
      (* the payload type is private to Mhls_driver: decode and drop *)
      ignore (r.span "driver.cache.decode" (fun () -> Sys.opaque_identity (Marshal.from_string bytes 0 : Obj.t)))

(** Per-layer totals for one round, plus the untraced reference. *)
type rep = {
  cold : (string, span) Hashtbl.t;  (** spans of the cold replay *)
  warm : (string, span) Hashtbl.t;  (** spans of the warm replay *)
  notes : (string, float) Hashtbl.t;
  submit_cold_ms : float;
  submit_warm_ms : float;
  cold_hits : int;  (** [Driver.submit] answers from its cache, cold *)
  warm_hits : int;
  traced_ms : float;  (** the traced replay, cold + warm *)
  untraced_ms : float;  (** the same replay without spans *)
  failures : string list;
}

(** [Driver.submit]'s cache entry for every job: the bytes a traced cold
    job stores, so the store is timed on identical data. *)
let payloads (specs : Grid.spec list) : string list =
  let dir = Scratch.fresh "layers-payloads" in
  D.with_session ~jobs:1 ~cache_dir:dir (fun s ->
      ignore (D.submit_exn s (List.map Grid.job specs)));
  let cache = Cache.create ~dir in
  List.map
    (fun s -> Option.get (Cache.find cache (Option.get (D.cache_key ~pipeline (Grid.job s)))))
    specs

(** One repetition over the round.  Job by job, in alternating order,
    it times the untraced sequential [Driver.submit] of the job, the
    traced replay and the untraced replay — first all jobs cold, then
    all warm — so the three see the same host conditions. *)
let rep ~(exp : Grid.expected) (specs : Grid.spec list) (payloads : string list) :
    rep =
  let ref_dir = Scratch.fresh "layers-ref" in
  let t_dir = Scratch.fresh "layers-traced" in
  let u_dir = Scratch.fresh "layers-untraced" in
  let session = D.create_session ~jobs:1 ~cache_dir:ref_dir () in
  let t_cache = Cache.create ~dir:t_dir and u_cache = Cache.create ~dir:u_dir in
  let cold = Hashtbl.create 32 and warm = Hashtbl.create 8 in
  let notes = Hashtbl.create 8 in
  let failures = ref [] in
  let fail f = failures := f :: !failures in
  let submit_s = ref 0. and traced_s = ref 0. and untraced_s = ref 0. in
  let add acc f = let r, dt = Timing.timed f in acc := !acc +. dt; r in
  let phase ~from_cache ~(traced_step : Grid.spec -> string -> unit)
      ~(untraced_step : Grid.spec -> string -> unit) =
    let t0 = !submit_s and hits = ref 0 in
    List.iteri
      (fun i (s, payload) ->
        let submit () =
          let outs = add submit_s (fun () -> D.submit_exn session [ Grid.job s ]) in
          List.iter (fun (o : D.outcome) -> if o.D.o_from_cache then incr hits) outs;
          List.iter fail (snd (Batch.check_round ~exp ~from_cache [ s ] outs))
        in
        let traced () = add traced_s (fun () -> traced_step s payload) in
        let untraced () = add untraced_s (fun () -> untraced_step s payload) in
        if i mod 2 = 0 then (submit (); traced (); untraced ())
        else (untraced (); traced (); submit ()))
      (List.combine specs payloads);
    ((!submit_s -. t0) *. 1000., !hits)
  in
  let check s q = Option.iter fail (Grid.check_qor exp s q) in
  let submit_cold_ms, cold_hits =
    phase ~from_cache:false
      ~traced_step:(fun s payload ->
        check s (cold_job (traced cold notes) ~cache:t_cache ~payload s))
      ~untraced_step:(fun s payload ->
        ignore (cold_job untraced ~cache:u_cache ~payload s))
  in
  let submit_warm_ms, warm_hits =
    phase ~from_cache:true
      ~traced_step:(fun s _ -> warm_job (traced warm notes) ~cache:t_cache s)
      ~untraced_step:(fun s _ -> warm_job untraced ~cache:u_cache s)
  in
  D.close_session session;
  {
    cold;
    warm;
    notes;
    submit_cold_ms;
    submit_warm_ms;
    cold_hits;
    warm_hits;
    traced_ms = !traced_s *. 1000.;
    untraced_ms = !untraced_s *. 1000.;
    failures = !failures;
  }

(** A span's figure summed over the cold and warm replays. *)
let field (r : rep) (name : string) (f : span -> float) : float =
  List.fold_left
    (fun acc tbl ->
      acc +. match Hashtbl.find_opt tbl name with Some s -> f s | None -> 0.)
    0. [ r.cold; r.warm ]

let total_ms tbl = Hashtbl.fold (fun _ s acc -> acc +. s.ms) tbl 0.
let layer_ms (r : rep) = total_ms r.cold +. total_ms r.warm
let submit_ms (r : rep) = r.submit_cold_ms +. r.submit_warm_ms

(* ------------------------------------------------------------------ *)
(* DSE and serve layers                                               *)
(* ------------------------------------------------------------------ *)

(** DSE searches traced in process, single domain: the first requests
    of the serve workload's connection B. *)
let dse_searches = 3

(** Sequential requests of connection A's mix sent in the serve probe. *)
let serve_probe = 300

(** Identical compiles then sent at once on two connections. *)
let serve_pairs = 100

(** The serve probe: connection A's first requests one at a time, then
    {!serve_pairs} fresh compiles each sent at once on two connections,
    so the second of a pair either joins the first's evaluation
    (coalesced) or, if that already finished, is a memo hit.  Returns
    the metrics, the daemon's driver-cache hit ratio and the failures. *)
let serve_probe_metrics ~mhlsc ~(exp : Grid.expected) (rng : Random.State.t) =
  let module P = Mhls_serve.Protocol in
  let module C = Mhls_serve.Client in
  let d, sock, c, _ = Servemix.start ~mhlsc in
  let m = Servemix.mix rng in
  let failures = ref [] and overhead = ref [] and samples = ref [] in
  for _ = 1 to serve_probe do
    match Servemix.next m with
    | None -> ()
    | Some r ->
        let sample, cr, failure = Servemix.send_a ~exp c m r in
        samples := sample :: !samples;
        Option.iter (fun f -> failures := f :: !failures) failure;
        (match (sample.Servemix.kind, sample.Servemix.spec, cr) with
        | Servemix.Compile, Some s, Some _ ->
            let k = Option.get (K.by_name s.Grid.kernel) in
            let hook, _ = Support.Tracing.collector () in
            let _, flow_s =
              Timing.timed (fun () ->
                  Flow.run ~directives:s.Grid.directives
                    ~pipeline:(Adaptor.Pipeline.with_top (Some k.K.kname) pipeline)
                    ~clock_ns:s.Grid.clock_ns ~sched:s.Grid.sched ~trace:hook k
                    s.Grid.flow)
            in
            overhead := ((sample.Servemix.seconds -. flow_s) *. 1000.) :: !overhead
        | _ -> ())
  done;
  let b = Servemix.connect sock in
  for _ = 1 to serve_pairs do
    match m.Servemix.fresh with
    | [] -> ()
    | s :: rest ->
        m.Servemix.fresh <- rest;
        let req = Grid.request s in
        let reply_b = ref (Error "not sent") in
        let t = Thread.create (fun () -> reply_b := C.request b req) () in
        let reply_a = C.request c req in
        Thread.join t;
        List.iter
          (fun r ->
            Result.iter_error
              (fun f -> failures := f :: !failures)
              (Servemix.check_compile ~exp s r))
          [ reply_a; !reply_b ]
  done;
  C.close b;
  let st = Servemix.stats c in
  Servemix.stop d c;
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let p50 k = Timing.percentile 0.5 (Servemix.ms_of k !samples) in
  ( [
      ("serve.overhead.ms", Timing.median !overhead, "ms");
      ("serve.memo_ms_p50", p50 Servemix.Memo, "ms");
      ("serve.ping_ms_p50", p50 Servemix.Ping, "ms");
      ( "serve.memo_hit_ratio",
        ratio st.P.st_memo_hits (st.P.st_memo_hits + st.P.st_evaluated + st.P.st_coalesced),
        "ratio" );
      ("serve.coalesced", float_of_int st.P.st_coalesced, "count");
      ("serve.busy_ratio", ratio st.P.st_busy (st.P.st_served + st.P.st_busy), "ratio");
    ],
    ratio st.P.st_cache_hits (st.P.st_cache_hits + st.P.st_cache_misses),
    !failures )

let dse_metrics ~(exp : Grid.expected) (dses : (string * float) list) =
  let module S = Mhls_dse.Search in
  let runs =
    List.filteri (fun i _ -> i < dse_searches) dses
    |> List.map (fun (kernel, clock_ns) ->
           let k = Option.get (K.by_name kernel) in
           let params = { S.default_params with S.clock_ns } in
           let dir = Scratch.fresh "layers-dse" in
           let o, s =
             Timing.timed (fun () ->
                 S.search ~params ~scheds:B.all_scheds ~cache_dir:dir ~jobs:1 k)
           in
           let got =
             Option.map
               (fun (b : S.point) ->
                 (b.S.pt_label, b.S.pt_report.Hls_backend.Estimate.latency))
               (S.best o)
           in
           let failure =
             if got = Hashtbl.find_opt exp.Grid.dses (Grid.dse_name ~kernel ~clock_ns)
             then None
             else Some ("dse " ^ Grid.dse_name ~kernel ~clock_ns ^ ": best point differs")
           in
           (s *. 1000., o.S.o_full_evals, failure))
  in
  ( [
      ( "dse.search.ms",
        Timing.median (List.map (fun (ms, _, _) -> ms) runs),
        "ms" );
      ( "dse.full_evals",
        float_of_int (List.fold_left (fun a (_, n, _) -> a + n) 0 runs),
        "count" );
    ],
    List.filter_map (fun (_, _, f) -> f) runs )

(** Every span the compile round produces, in call order. *)
let span_names =
  [ "driver.cache_key"; "driver.cache.find"; "workloads.build"; "mhir.verify";
    "mhir.canonicalize"; "lowering.lower"; "hlscpp.emit"; "hlscpp.parse";
    "llvmir.verify"; "llvmir.cleanup"; "adaptor.run"; "adaptor.report";
    "hls_backend.static"; "hls_backend.dynamic"; "driver.cache.store";
    "driver.cache.decode" ]

(** Rounds replayed; each figure is the median over them. *)
let reps = 3

(** [driver.cache.hit_ratio] is the program's own: on the batch
    workloads, the share of the workload's phase of the sequential
    [Driver.submit] answered from its cache; on serve-mix, the probe
    daemon's driver-cache hit ratio from its [stats] reply. *)
let run ~mhlsc ~workload ~seed ~(exp : Grid.expected) : Batch.outcome =
  let grid = Grid.cells ~clock_ns:Grid.batch_clock in
  (* the batch workloads' first round, and the serve workload's streams *)
  let specs = Grid.shuffle (Random.State.make [| seed |]) grid in
  let serve_rng = Random.State.make [| seed |] in
  let dses = Grid.serve_dses (Random.State.split serve_rng) in
  let bytes = payloads specs in
  let rs = List.init reps (fun _ -> rep ~exp specs bytes) in
  let med f = Timing.median (List.map f rs) in
  let span_field name f = med (fun r -> field r name f) in
  let note name = med (fun r -> Option.value (Hashtbl.find_opt r.notes name) ~default:0.) in
  let per_span =
    List.concat_map
      (fun n ->
        [
          (n ^ ".ms", span_field n (fun s -> s.ms), "ms");
          (n ^ ".calls", span_field n (fun s -> float_of_int s.calls), "count");
          (n ^ ".minor_words", span_field n (fun s -> s.minor), "words");
          (n ^ ".major_words", span_field n (fun s -> s.major), "words");
        ])
      span_names
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  let sum_int f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let coverage = sum layer_ms /. sum submit_ms in
  let cold_cov = sum (fun r -> total_ms r.cold) /. sum (fun r -> r.submit_cold_ms) in
  let warm_cov = sum (fun r -> total_ms r.warm) /. sum (fun r -> r.submit_warm_ms) in
  let dse, dse_failures = dse_metrics ~exp dses in
  let serve, serve_cache_ratio, serve_failures =
    serve_probe_metrics ~mhlsc ~exp serve_rng
  in
  let lookups = float_of_int (reps * List.length specs) in
  let cache_hit_ratio =
    match workload with
    | "compile-cold" -> float_of_int (sum_int (fun r -> r.cold_hits)) /. lookups
    | "compile-warm" -> float_of_int (sum_int (fun r -> r.warm_hits)) /. lookups
    | _ -> serve_cache_ratio
  in
  let hits = note "analysis.hits" and computes = note "analysis.computes" in
  let compile_layers =
    per_span
    @ [
        ("lowering.instrs_out", note "lowering.instrs_out", "count");
        ("llvmir.cleanup.instrs_out", note "llvmir.cleanup.instrs_out", "count");
        ("llvmir.analysis.hit_ratio", hits /. (hits +. computes), "ratio");
        ("driver.cache.hit_ratio", cache_hit_ratio, "ratio");
        ("driver.overhead.ms", med (fun r -> submit_ms r -. layer_ms r), "ms");
        ("driver.coverage", coverage, "ratio");
        ("driver.coverage.cold", cold_cov, "ratio");
        ("driver.coverage.warm", warm_cov, "ratio");
        ("trace.overhead.ms", med (fun r -> r.traced_ms -. r.untraced_ms), "ms");
      ]
  in
  let coverage_failures =
    List.filter_map
      (fun (what, v, lo) ->
        if v >= lo && v <= max_coverage then None
        else
          Some
            (Printf.sprintf
               "%s coverage %.1f%% of sequential Driver.submit, outside %.0f-%.0f%%"
               what (100. *. v) (100. *. lo) (100. *. max_coverage)))
      [ ("total", coverage, min_coverage); ("cold", cold_cov, 0.) ]
  in
  {
    Batch.attempted =
      (reps * 2 * List.length specs) + dse_searches + serve_probe + (2 * serve_pairs);
    failures =
      coverage_failures @ List.concat_map (fun r -> r.failures) rs @ dse_failures
      @ serve_failures;
    metrics = compile_layers @ dse @ serve;
    summary =
      Printf.sprintf
        "traced round of %d jobs, median of %d: spans %.1f ms of %.1f ms sequential \
         Driver.submit (coverage %.1f%%; cold %.1f%%, warm %.1f%%); traced \
         replay %.1f ms vs untraced %.1f ms"
        (List.length specs) reps (med layer_ms) (med submit_ms)
        (100. *. coverage) (100. *. cold_cov) (100. *. warm_cov)
        (med (fun r -> r.traced_ms)) (med (fun r -> r.untraced_ms));
  }
