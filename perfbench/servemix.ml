(** The serve workload: the real [mhlsc serve] daemon (CLI dispatch,
    2 workers, default budgets, fresh empty cache) and one client
    process with two closed-loop connections.

    - A sends a seeded mix: distinct compiles drawn without
      replacement from {!Grid.serve_compiles}, resubmissions of earlier
      compiles (answered by the response memo) and pings.
    - B keeps one DSE request ({!Grid.serve_dses}, [sched: both]) in
      flight back to back, so compiles compete with a sweep for the
      two workers.

    Latencies are taken at the client around each request/reply. *)

module P = Mhls_serve.Protocol
module C = Mhls_serve.Client

type daemon = { pid : int }

(** Shares of connection A's requests that are distinct compiles and
    memo resubmissions; the rest are pings.  They are the repository's
    own serve traffic: the three serve steps of the CI workflow send 4
    distinct compiles, 1 identical resubmission and 2 pings (besides
    lint, stats, DSE and shutdown requests), so 4/7, 1/7 and 2/7. *)
let compile_share = 4. /. 7.

let memo_share = 1. /. 7.

let connect (sock : string) : C.t =
  let t0 = Timing.now_ns () in
  let rec go () =
    match C.connect_unix sock with
    | Ok c -> c
    | Error e when Timing.since_s t0 > 30. ->
        failwith ("cannot connect to the daemon: " ^ e)
    | Error _ ->
        Unix.sleepf 0.0001;
        go ()
  in
  go ()

(** Start a daemon on a fresh socket and cache, and wait for its first
    pong.  Returns the daemon, a connection, and the seconds from spawn
    to pong. *)
let start ~(mhlsc : string) : daemon * string * C.t * float =
  let dir = Scratch.fresh "serve" in
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Timing.now_ns () in
  let pid =
    Unix.create_process mhlsc
      [| mhlsc; "serve"; "--socket"; sock; "--cache-dir";
         Filename.concat dir "cache"; "--jobs"; "2"; "-q" |]
      null log log
  in
  Scratch.children := pid :: !Scratch.children;
  Unix.close log;
  Unix.close null;
  let c = connect sock in
  (match C.request c P.Ping with
  | Ok (P.Done P.R_pong) -> ()
  | _ -> failwith "the daemon did not answer its first ping");
  ({ pid }, sock, c, Timing.since_s t0)

(** Shut the daemon down over [c] and reap it. *)
let stop (d : daemon) (c : C.t) : unit =
  ignore (C.request c P.Shutdown);
  C.close c;
  let t0 = Timing.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Timing.since_s t0 < 10. ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ -> Scratch.reap d.pid
    | _ -> Scratch.children := List.filter (( <> ) d.pid) !Scratch.children
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let stats (c : C.t) : P.stats_resp =
  match C.request c P.Stats with
  | Ok (P.Done (P.R_stats s)) -> s
  | _ -> failwith "the daemon did not answer stats"

let describe_reply : (P.reply, string) result -> string = function
  | Error e -> "protocol failure: " ^ e
  | Ok (P.Busy depth) -> Printf.sprintf "busy (queue depth %d)" depth
  | Ok (P.Failed ds) -> String.concat "; " (List.map Support.Diag.to_string ds)
  | Ok (P.Done p) -> "unexpected " ^ P.payload_kind p ^ " reply"

(* ------------------------------------------------------------------ *)
(* Connection A: the seeded request mix                               *)
(* ------------------------------------------------------------------ *)

type kind = Compile | Memo | Ping

(** Generator of A's requests: a pure function of the seed and of the
    replies so far (a resubmission picks among answered compiles). *)
type mix = {
  rng : Random.State.t;
  mutable fresh : Grid.spec list;  (** distinct compiles not sent yet *)
  answered : Grid.spec array;  (** successful distinct compiles *)
  mutable n_answered : int;
}

let mix (rng : Random.State.t) : mix =
  let fresh = Grid.serve_compiles rng in
  {
    rng;
    fresh;
    answered = Array.make (List.length fresh) (List.hd fresh);
    n_answered = 0;
  }

let next (m : mix) : (kind * Grid.spec option) option =
  let r = Random.State.float m.rng 1.0 in
  if m.n_answered = 0 || r < compile_share then
    match m.fresh with
    | [] -> None
    | s :: rest ->
        m.fresh <- rest;
        Some (Compile, Some s)
  else if r < compile_share +. memo_share then
    Some (Memo, Some m.answered.(Random.State.int m.rng m.n_answered))
  else Some (Ping, None)

type sample = { kind : kind; spec : Grid.spec option; seconds : float }

(** [check_compile ~exp s reply] is the compile answer when [reply]
    carries the recorded QoR of [s], else a description of what is
    wrong. *)
let check_compile ~(exp : Grid.expected) (s : Grid.spec) reply :
    (P.compile_resp, string) result =
  match reply with
  | Ok (P.Done (P.R_compile cr)) -> (
      match Grid.qor_of_compile_resp cr with
      | None -> Error (Grid.name s ^ ": no FF in the report")
      | Some q -> (
          match Grid.check_qor exp s q with Some e -> Error e | None -> Ok cr))
  | r -> Error (Grid.name s ^ ": " ^ describe_reply r)

(** Send one of A's requests, timing it at the client; checks the
    answer.  Returns the sample and the failure, if any. *)
let send_a ~(exp : Grid.expected) (c : C.t) (m : mix) (kind, spec) :
    sample * P.compile_resp option * string option =
  let req = match spec with Some s -> Grid.request s | None -> P.Ping in
  let reply, seconds = Timing.timed (fun () -> C.request c req) in
  let sample = { kind; spec; seconds } in
  match spec with
  | None -> (
      match reply with
      | Ok (P.Done P.R_pong) -> (sample, None, None)
      | r -> (sample, None, Some ("ping: " ^ describe_reply r)))
  | Some s -> (
      match check_compile ~exp s reply with
      | Error e -> (sample, None, Some e)
      | Ok cr ->
          if kind = Compile then begin
            m.answered.(m.n_answered) <- s;
            m.n_answered <- m.n_answered + 1
          end;
          (sample, Some cr, None))

(* ------------------------------------------------------------------ *)
(* Connection B: DSE back to back                                     *)
(* ------------------------------------------------------------------ *)

let send_dse ~(exp : Grid.expected) (c : C.t) (kernel, clock_ns) :
    float * string option =
  let reply, seconds =
    Timing.timed (fun () -> C.request c (Grid.dse_request ~kernel ~clock_ns))
  in
  let key = Grid.dse_name ~kernel ~clock_ns in
  let failure =
    match reply with
    | Ok (P.Done (P.R_dse { P.dr_best = Some got; _ })) -> (
        match Hashtbl.find_opt exp.Grid.dses key with
        | Some want when want = got -> None
        | Some (l, n) ->
            Some
              (Printf.sprintf "dse %s: best %s (%d cycles), expected %s (%d)"
                 key (fst got) (snd got) l n)
        | None -> Some ("dse " ^ key ^ ": no expected best point on record"))
    | r -> Some ("dse " ^ key ^ ": " ^ describe_reply r)
  in
  (seconds, failure)

(* ------------------------------------------------------------------ *)
(* The workload                                                       *)
(* ------------------------------------------------------------------ *)

(** Daemon starts per run; [setup_s] is their median. *)
let set_ups = 31

(** A connection stops sending after this many failures: a dead daemon
    answers every request at once, and the run is failed anyway. *)
let max_failures = 100

let ms_of kind samples =
  List.filter_map
    (fun s -> if s.kind = kind then Some (s.seconds *. 1000.) else None)
    samples

let run ~mhlsc ~seconds ~rng ~(exp : Grid.expected) : Batch.outcome =
  (* set-up several times; measure on the last daemon *)
  let starts =
    List.init set_ups (fun i ->
        let d, sock, c, s = start ~mhlsc in
        if i < set_ups - 1 then (stop d c; None, s) else (Some (d, sock, c), s))
  in
  let setup_s = Timing.median (List.map snd starts) in
  let d, sock, a =
    Option.get (List.find_map fst starts)
  in
  let b = connect sock in
  let dses = Grid.serve_dses (Random.State.split rng) in
  let m = mix rng in
  let block0 = ref (List.length (Grid.cells ~clock_ns:Grid.batch_clock)) in
  let failures = ref [] and samples = ref [] and block0_lat = ref [] in
  let t0 = Timing.now_ns () in
  let deadline () = Timing.since_s t0 >= seconds in
  (* B's thread: one DSE in flight until the deadline *)
  let b_samples = ref [] and b_failures = ref [] in
  let b_thread =
    Thread.create
      (fun () ->
        let rec go = function
          | [] -> ()
          | _ when deadline () || List.length !b_failures >= max_failures -> ()
          | r :: rest ->
              let s, f = send_dse ~exp b r in
              b_samples := s :: !b_samples;
              Option.iter (fun f -> b_failures := f :: !b_failures) f;
              go rest
        in
        go dses)
      ()
  in
  let rec loop () =
    if ((not (deadline ())) || !block0 > 0) && List.length !failures < max_failures
    then
      match next m with
      | None -> ()
      | Some r ->
          let sample, cr, failure = send_a ~exp a m r in
          samples := sample :: !samples;
          Option.iter (fun f -> failures := f :: !failures) failure;
          (match (sample.kind, cr) with
          | Compile, Some cr when !block0 > 0 ->
              decr block0;
              block0_lat := float_of_int cr.P.cr_latency :: !block0_lat
          | Compile, None when !block0 > 0 -> decr block0
          | _ -> ());
          loop ()
  in
  loop ();
  let a_seconds = Timing.since_s t0 in
  Thread.join b_thread;
  let samples = List.rev !samples in
  let count k = List.length (List.filter (fun s -> s.kind = k) samples) in
  let n_compile = count Compile and n_memo = count Memo in
  let n_dse = List.length !b_samples in
  let st = stats a in
  let counter_failures =
    List.filter_map Fun.id
      [
        (if st.P.st_memo_hits <> n_memo then
           Some
             (Printf.sprintf "stats: %d memo hits for %d resubmissions"
                st.P.st_memo_hits n_memo)
         else None);
        (if st.P.st_busy <> 0 then
           Some (Printf.sprintf "stats: %d busy rejections" st.P.st_busy)
         else None);
        (if st.P.st_evaluated <> n_compile + n_dse then
           Some
             (Printf.sprintf "stats: %d evaluations for %d compiles + %d DSEs"
                st.P.st_evaluated n_compile n_dse)
         else None);
      ]
  in
  let peak = Timing.peak_rss_mb ~pid:(string_of_int d.pid) () in
  C.close b;
  stop d a;
  let compile_ms = ms_of Compile samples in
  let p50 k = Timing.percentile 0.5 (ms_of k samples) in
  {
    Batch.attempted = List.length samples + n_dse;
    failures = counter_failures @ !b_failures @ !failures;
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("jobs_per_s", float_of_int (n_compile + n_memo) /. a_seconds, "1/s");
        ("requests_per_s", float_of_int (List.length samples) /. a_seconds, "1/s");
        ("compile_ms_p50", Timing.percentile 0.5 compile_ms, "ms");
        ("compile_ms_p99", Timing.tail compile_ms, "ms");
        ("peak_rss_mb", peak, "MB");
        ("qor_latency_cycles_geomean", Timing.geomean !block0_lat, "cycles");
      ];
    summary =
      Printf.sprintf
        "A: %d requests in %.2fs (%d compiles, %d memo, %d pings); memo_ms_p50 \
         %.3f ping_ms_p50 %.3f; B: %d DSEs, dse_ms_p50 %.1f"
        (List.length samples) a_seconds n_compile n_memo (count Ping)
        (p50 Memo) (p50 Ping) n_dse
        (Timing.percentile 0.5 (List.map (fun s -> s *. 1000.) !b_samples));
  }
