(** The batch workloads: rounds of the 224-job grid, each round one
    [Driver.submit] into a 2-worker session.

    - compile-cold: every round gets a fresh session without a result
      cache, so every job runs every compile layer.  (With a cache on
      disk, each round creates 224 files; on a small VM that file churn
      slowed itself and everything run after it several-fold within
      minutes, so the store path is measured by the traced run and by
      serve-mix instead.)
    - compile-warm: every round reads a cache filled during set-up, so
      every job is a hit and the compile layers do nothing. *)

module D = Mhls_driver.Driver

let workers = 2

type outcome = {
  attempted : int;
  failures : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  summary : string;
}

(** Check one round's answers: every job succeeded, came from where the
    workload says it must, and matches the recorded QoR.  Returns the
    latencies of the round's jobs and the failures found. *)
let check_round ~(exp : Grid.expected) ~(from_cache : bool)
    (specs : Grid.spec list) (outs : D.outcome list) : float list * string list
    =
  List.fold_left2
    (fun (lats, errs) s (o : D.outcome) ->
      match o.D.o_qor with
      | Error ds ->
          ( lats,
            (Grid.name s ^ ": "
            ^ String.concat "; " (List.map Support.Diag.to_string ds))
            :: errs )
      | Ok r ->
          let q = Grid.qor_of_report r in
          let errs =
            match Grid.check_qor exp s q with Some e -> e :: errs | None -> errs
          in
          let errs =
            if o.D.o_from_cache <> from_cache then
              Printf.sprintf "%s: from_cache=%b, expected %b" (Grid.name s)
                o.D.o_from_cache from_cache
              :: errs
            else errs
          in
          (float_of_int q.Grid.latency :: lats, errs))
    ([], []) specs outs

let submit session specs =
  match D.submit session (List.map Grid.job specs) with
  | Ok outs -> outs
  | Error ds -> raise (Support.Diag.Failed ds)

(** Shared measurement loop: rounds until [seconds] of submit time have
    been measured, each round a fresh seeded shuffle of the grid. *)
let rounds ~seconds ~rng ~exp ~from_cache ~(session_for_round : unit -> D.session * (unit -> unit)) =
  let grid = Grid.cells ~clock_ns:Grid.batch_clock in
  let walls = ref [] and failures = ref [] and qor = ref [] and n = ref 0 in
  let measured = ref 0. in
  while !measured < seconds do
    let specs = Grid.shuffle rng grid in
    let session, finish = session_for_round () in
    let outs, wall = Timing.timed (fun () -> submit session specs) in
    finish ();
    let lats, errs = check_round ~exp ~from_cache specs outs in
    walls := wall :: !walls;
    measured := !measured +. wall;
    failures := errs @ !failures;
    qor := lats;
    n := !n + List.length specs
  done;
  (!walls, !n, !failures, Timing.geomean !qor)

(** Round latencies in ms: quartiles, and the mean of each fifth of
    the run in order, which shows drift within the run. *)
let describe_rounds (walls : float list) : string =
  let ms = List.rev_map (fun w -> w *. 1000.) walls in
  let n = List.length ms in
  let fifth i =
    let part = List.filteri (fun j _ -> j * 5 / n = i) ms in
    List.fold_left ( +. ) 0. part /. float_of_int (max 1 (List.length part))
  in
  Printf.sprintf "round ms q1/q2/q3 %.0f/%.0f/%.0f, by fifth %s"
    (Timing.percentile 0.25 ms) (Timing.percentile 0.5 ms) (Timing.percentile 0.75 ms)
    (String.concat " " (List.init 5 (fun i -> Printf.sprintf "%.0f" (fifth i))))

let metrics ~setup_s ~walls ~jobs ~qor_geomean =
  let total = List.fold_left ( +. ) 0. walls in
  let ms = List.map (fun w -> w *. 1000.) walls in
  [
    ("setup_s", setup_s, "s");
    ("jobs_per_s", float_of_int jobs /. total, "1/s");
    ("requests_per_s", float_of_int (List.length walls) /. total, "1/s");
    ("compile_ms_p50", Timing.median ms, "ms");
    ("compile_ms_p99", Timing.tail ms, "ms");
    ("peak_rss_mb", Timing.peak_rss_mb (), "MB");
    ("qor_latency_cycles_geomean", qor_geomean, "cycles");
  ]

let cold ~seconds ~rng ~exp : outcome =
  let setups = ref [] in
  Timing.reset_peak_rss ();
  let session_for_round () =
    let session, setup = Timing.timed (fun () -> D.create_session ~jobs:workers ()) in
    setups := setup :: !setups;
    (session, fun () -> D.close_session session)
  in
  let walls, jobs, failures, qor_geomean =
    rounds ~seconds ~rng ~exp ~from_cache:false ~session_for_round
  in
  let setup_s = Timing.median !setups in
  {
    attempted = jobs;
    failures;
    metrics = metrics ~setup_s ~walls ~jobs ~qor_geomean;
    summary =
      Printf.sprintf "%d rounds of 224 jobs (%s); %d set-ups (session)"
        (List.length walls) (describe_rounds walls) (List.length !setups);
  }

(** Set-up fills a fresh cache with one cold round, then opens a
    2-worker session on it [opens] times; [setup_s] is the median
    opening and the last session is measured.  The fill is left out of
    [setup_s]: it times 224 file creations, whose cost on a small VM
    varies several-fold from one minute to the next. *)
let opens = 9

let warm ~seconds ~rng ~exp : outcome =
  let grid = Grid.cells ~clock_ns:Grid.batch_clock in
  let dir = Scratch.fresh "warm" in
  let fill_outs, fill_s =
    Timing.timed (fun () ->
        D.with_session ~jobs:workers ~cache_dir:dir (fun filler -> submit filler grid))
  in
  let failures_setup = snd (check_round ~exp ~from_cache:false grid fill_outs) in
  let sessions =
    List.init opens (fun _ ->
        Timing.timed (fun () -> D.create_session ~jobs:workers ~cache_dir:dir ()))
  in
  List.iteri (fun i (s, _) -> if i < opens - 1 then D.close_session s) sessions;
  let session = fst (List.nth sessions (opens - 1)) in
  Gc.full_major ();
  Timing.reset_peak_rss ();
  let walls, jobs, failures, qor_geomean =
    rounds ~seconds ~rng ~exp ~from_cache:true
      ~session_for_round:(fun () -> (session, ignore))
  in
  D.close_session session;
  let setup_s = Timing.median (List.map snd sessions) in
  {
    attempted = jobs + List.length grid;
    failures = failures_setup @ failures;
    metrics = metrics ~setup_s ~walls ~jobs ~qor_geomean;
    summary =
      Printf.sprintf
        "%d rounds of 224 cache hits (%s); fill %.2fs, %d set-ups (session)"
        (List.length walls) (describe_rounds walls) fill_s opens;
  }
