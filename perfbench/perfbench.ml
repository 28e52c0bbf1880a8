(** perfbench: the compile stack's benchmark (see README.md).

    {v
    perfbench.exe --workload compile-cold|compile-warm|serve-mix
                  --seed N --seconds S --trace 0|1 --mhlsc PATH
    v}

    [--trace 0] measures the workload and prints its end-to-end
    metrics; [--trace 1] makes the traced run and prints the per-layer
    metrics.  Either way the last line of stdout is one JSON object
    [{"correct", "attempted", "failed", "metrics"}], and the exit code
    is non-zero if any job, request, QoR record or co-simulation check
    failed.  [--record] regenerates the expected QoR record. *)

let workloads = [ "compile-cold"; "compile-warm"; "serve-mix" ]

(** Co-simulate every kernel × [Driver.default_grid] config: both flows
    against the plain-OCaml reference through the interpreters.
    Returns the failures. *)
let cosim () : string list =
  List.concat_map
    (fun k ->
      List.filter_map
        (fun (config, directives) ->
          let what = k.Workloads.Kernels.kname ^ " " ^ config in
          match Flow.cosim ~directives k with
          | { Flow.ok = true; _ } -> None
          | { Flow.details; _ } ->
              Some ("cosim " ^ what ^ ": " ^ String.concat "; " details)
          | exception e -> Some ("cosim " ^ what ^ ": " ^ Printexc.to_string e))
        Mhls_driver.Driver.default_grid)
    (Workloads.Kernels.all ())

let cosim_checks () =
  List.length (Workloads.Kernels.all ()) * List.length Mhls_driver.Driver.default_grid

(** Run {!cosim} in a child process, so its interpreter heap does not
    count towards the workload's peak RSS.  The exit code is the
    number of failures. *)
let cosim_in_child () : int =
  let self = Sys.executable_name in
  let pid = Unix.create_process self [| self; "--cosim" |] Unix.stdin Unix.stderr Unix.stderr in
  Scratch.children := pid :: !Scratch.children;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  Scratch.children := List.filter (( <> ) pid) !Scratch.children;
  match status with Unix.WEXITED n -> n | _ -> cosim_checks ()

let json_result ~correct ~attempted ~failed metrics : string =
  let field (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

let main ~workload ~seed ~seconds ~trace ~mhlsc =
  if not (List.mem workload workloads) then
    failwith
      (Printf.sprintf "unknown workload %S (want %s)" workload
         (String.concat ", " workloads));
  if seconds <= 0. then failwith "--seconds must be positive";
  if (trace || workload = "serve-mix") && not (Sys.file_exists mhlsc) then
    failwith ("mhlsc executable not found: " ^ mhlsc);
  Scratch.init ();
  let exp = Grid.load_expected () in
  let cosim_failed = cosim_in_child () in
  let rng = Random.State.make [| seed |] in
  let o =
    if trace then Layers.run ~mhlsc ~workload ~seed ~exp
    else
      match workload with
      | "compile-cold" -> Batch.cold ~seconds ~rng ~exp
      | "compile-warm" -> Batch.warm ~seconds ~rng ~exp
      | _ -> Servemix.run ~mhlsc ~seconds ~rng ~exp
  in
  let bad_values =
    List.filter_map
      (fun (n, v, _) ->
        if Float.is_finite v then None else Some (n ^ " is not a number"))
      o.Batch.metrics
  in
  let failures = o.Batch.failures @ bad_values in
  let failed = List.length failures + cosim_failed in
  let attempted = o.Batch.attempted + cosim_checks () in
  List.iteri
    (fun i f -> if i < 20 then prerr_endline ("perfbench: FAILED " ^ f))
    failures;
  Printf.printf "# %s seed=%d%s: %s; cosim %d/%d ok; failed_ratio %g\n" workload
    seed
    (if trace then " (traced)" else "")
    o.Batch.summary
    (cosim_checks () - cosim_failed)
    (cosim_checks ())
    (float_of_int failed /. float_of_int attempted);
  let metrics =
    List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) o.Batch.metrics
  in
  print_endline (json_result ~correct:(failed = 0) ~attempted ~failed metrics);
  if failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref 0 and mhlsc = ref "_build/default/bin/mhlsc.exe"
  and mode = ref `Bench in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--mhlsc", Arg.Set_string mhlsc, "PATH the mhlsc executable to serve with");
      ("--cosim", Arg.Unit (fun () -> mode := `Cosim), " co-simulation checks only");
      ("--record", Arg.String (fun f -> mode := `Record f), "FILE regenerate the expected QoR record");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  match !mode with
  | `Cosim ->
      let failures = cosim () in
      List.iter (fun f -> prerr_endline ("perfbench: FAILED " ^ f)) failures;
      exit (min 100 (List.length failures))
  | `Record f -> Grid.write_record ~jobs:2 f
  | `Bench -> (
      try
        main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0)
          ~mhlsc:!mhlsc
      with
      | Failure msg | Sys_error msg ->
          prerr_endline ("perfbench: " ^ msg);
          exit 2
      | Support.Diag.Failed ds ->
          List.iter (fun d -> prerr_endline ("perfbench: " ^ Support.Diag.to_string d)) ds;
          exit 2
      | e ->
          prerr_endline ("perfbench: " ^ Printexc.to_string e);
          exit 2)
