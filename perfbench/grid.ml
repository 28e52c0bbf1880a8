(** The benchmark's inputs and their expected answers.

    A job is one cell of kernel × [Driver.default_grid] config × flow
    × scheduling discipline × clock.  The batch workloads use the 224
    cells at 10 ns; the serve workload draws from the same grid at
    every clock of {!serve_clocks}.  Every input is a pure function of
    the seed; the program only ever sees the generated jobs. *)

module K = Workloads.Kernels
module E = Hls_backend.Estimate
module B = Hls_backend.Backend
module D = Mhls_driver.Driver
module P = Mhls_serve.Protocol

type spec = {
  kernel : string;
  config : string;  (** name of the [Driver.default_grid] entry *)
  directives : K.directives;
  flow : Flow.flow_kind;
  sched : B.sched;
  clock_ns : float;
}

let batch_clock = 10.0

(** Clocks of the serve workload's distinct compiles: [batch_clock]
    first, so every run's first block has the batch workloads' QoR
    geomean, then 3.0 to 32.5 ns in half steps.  60 blocks of 224 last
    a 30 s run with half again to spare; a connection that runs out
    stops early and its rates cover the time it ran. *)
let serve_clocks =
  batch_clock
  :: List.filter (( <> ) batch_clock) (List.init 60 (fun i -> 3.0 +. (0.5 *. float_of_int i)))

(** Clocks of the DSE requests, on the quarter points so they never
    meet {!serve_clocks}: a sweep must not fill a driver-cache entry
    that a compile request would then hit. *)
let dse_clocks = List.init 16 (fun i -> 4.25 +. float_of_int i)

let kernels () = List.map (fun k -> k.K.kname) (K.all ())

let cells ~clock_ns : spec list =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun (config, directives) ->
          List.concat_map
            (fun flow ->
              List.map
                (fun sched ->
                  { kernel; config; directives; flow; sched; clock_ns })
                B.all_scheds)
            [ Flow.Direct_ir; Flow.Hls_cpp ])
        D.default_grid)
    (kernels ())

let name (s : spec) : string =
  Printf.sprintf "%s %s %s %s %.3f" s.kernel s.config (Flow.flow_name s.flow)
    (B.sched_name s.sched) s.clock_ns

let job (s : spec) : D.job =
  D.job ~label:(name s) ~flow:s.flow ~sched:s.sched ~clock_ns:s.clock_ns
    ~kernel:s.kernel s.directives

let request (s : spec) : P.request =
  let d = s.directives in
  P.Compile
    {
      P.c_kernel = s.kernel;
      c_flow = (match s.flow with Flow.Direct_ir -> "direct" | Flow.Hls_cpp -> "cpp");
      c_sched = B.sched_name s.sched;
      c_directives =
        {
          P.d_ii = d.K.pipeline_ii;
          d_unroll = d.K.unroll;
          d_strategy = (match d.K.strategy with K.Inner -> "inner" | K.Middle -> "middle");
          d_partitions = d.K.partitions;
        };
      c_clock_ns = s.clock_ns;
      c_passes = None;
      c_disable = [];
    }

let dse_request ~kernel ~clock_ns : P.request =
  P.Dse
    {
      P.ds_kernel = kernel;
      ds_sched = "both";
      ds_max_evals = None;
      ds_rounds = None;
      ds_stable = None;
      ds_budget_bram = None;
      ds_budget_dsp = None;
      ds_budget_lut = None;
      ds_clock_ns = clock_ns;
    }

let dse_name ~kernel ~clock_ns = Printf.sprintf "%s %.3f" kernel clock_ns

(* ------------------------------------------------------------------ *)
(* Seeded order                                                       *)
(* ------------------------------------------------------------------ *)

let shuffle (rng : Random.State.t) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** The serve workload's distinct compiles, without replacement: one
    block per clock, each block a seeded shuffle of the 224 cells.
    Block 0 is always [batch_clock]; the later clocks come in seeded
    order. *)
let serve_compiles (rng : Random.State.t) : spec list =
  let first = List.hd serve_clocks in
  let rest = shuffle rng (List.tl serve_clocks) in
  List.concat_map (fun clock_ns -> shuffle rng (cells ~clock_ns)) (first :: rest)

(** The DSE requests: one block per DSE clock, each a seeded shuffle of
    the kernels, so every run sends the same mix of kernels in whole
    blocks up to its last one. *)
let serve_dses (rng : Random.State.t) : (string * float) list =
  List.concat_map
    (fun clock_ns -> List.map (fun k -> (k, clock_ns)) (shuffle rng (kernels ())))
    (shuffle rng dse_clocks)

(* ------------------------------------------------------------------ *)
(* QoR and the expected record                                        *)
(* ------------------------------------------------------------------ *)

type qor = { latency : int; ii : int; bram : int; dsp : int; ff : int; lut : int }

let inner_ii (r : E.report) : int =
  List.fold_left
    (fun acc (l : E.loop_report) ->
      match l.E.achieved_ii with Some ii -> max acc ii | None -> acc)
    0 r.E.loops

let qor_of_report (r : E.report) : qor =
  {
    latency = r.E.latency;
    ii = inner_ii r;
    bram = r.E.resources.E.bram;
    dsp = r.E.resources.E.dsp;
    ff = r.E.resources.E.ff;
    lut = r.E.resources.E.lut;
  }

(** A compile reply carries FF only inside its rendered report. *)
let qor_of_compile_resp (c : P.compile_resp) : qor option =
  let ff =
    String.split_on_char '\n' c.P.cr_report
    |> List.find_map (fun l ->
           try
             Scanf.sscanf (String.trim l)
               "Resources: BRAM_18K=%_d DSP48=%_d FF=%d LUT=%_d" Option.some
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  Option.map
    (fun ff ->
      {
        latency = c.P.cr_latency;
        ii = c.P.cr_ii;
        bram = c.P.cr_bram;
        dsp = c.P.cr_dsp;
        ff;
        lut = c.P.cr_lut;
      })
    ff

let qor_to_string (q : qor) : string =
  Printf.sprintf "%d,%d,%d,%d,%d,%d" q.latency q.ii q.bram q.dsp q.ff q.lut

type expected = {
  jobs : (string, qor) Hashtbl.t;  (** keyed by {!name} *)
  dses : (string, string * int) Hashtbl.t;
      (** keyed by {!dse_name}: best point's label and latency *)
}

let record_file = "perfbench/expected_qor.txt"

(** Record lines hold one cell and all its clocks:
    [job <kernel> <config> <flow> <sched> <clock>=<QoR>,... ...] and
    [dse <kernel> <clock>=<best point>,<latency> ...]. *)
let load_expected () : expected =
  let jobs = Hashtbl.create 16384 and dses = Hashtbl.create 256 in
  let malformed line = failwith ("malformed record line: " ^ line) in
  let per_clock line prefix entries f =
    List.iter
      (fun e ->
        match String.split_on_char '=' e with
        | [ clk; v ] -> f (prefix ^ " " ^ clk) (String.split_on_char ',' v)
        | _ -> malformed line)
      entries
  in
  In_channel.with_open_text record_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | "job" :: k :: cfg :: fl :: sc :: entries ->
             per_clock line (String.concat " " [ k; cfg; fl; sc ]) entries
               (fun key -> function
                 | [ latency; ii; bram; dsp; ff; lut ] ->
                     let i = int_of_string in
                     Hashtbl.replace jobs key
                       { latency = i latency; ii = i ii; bram = i bram;
                         dsp = i dsp; ff = i ff; lut = i lut }
                 | _ -> malformed line)
         | "dse" :: k :: entries ->
             per_clock line k entries (fun key -> function
               | [ label; lat ] -> Hashtbl.replace dses key (label, int_of_string lat)
               | _ -> malformed line)
         | _ -> ());
  { jobs; dses }

(** [check_qor exp s q] is [None] when [q] is the recorded answer for
    [s], else a description of the mismatch. *)
let check_qor (exp : expected) (s : spec) (q : qor) : string option =
  match Hashtbl.find_opt exp.jobs (name s) with
  | Some want when want = q -> None
  | Some want ->
      Some
        (Printf.sprintf "%s: QoR %s, expected %s" (name s) (qor_to_string q)
           (qor_to_string want))
  | None -> Some (Printf.sprintf "%s: no expected QoR on record" (name s))

(** Regenerate the record from the current compiler: every serve-clock
    cell through the batch driver, every DSE request in process. *)
let write_record ~(jobs : int) (path : string) : unit =
  let clock s = Printf.sprintf "%.3f" s in
  let grid = cells ~clock_ns:batch_clock in
  let results =
    List.map
      (fun clock_ns ->
        let specs = cells ~clock_ns in
        let report = D.run_batch ~jobs (List.map job specs) in
        List.map2
          (fun s (o : D.outcome) ->
            match o.D.o_qor with
            | Ok r -> qor_to_string (qor_of_report r)
            | Error ds ->
                failwith
                  (name s ^ ": "
                  ^ String.concat "; " (List.map Support.Diag.to_string ds)))
          specs report.D.outcomes)
      serve_clocks
  in
  let oc = open_out path in
  output_string oc
    "# Expected answers of the perfbench workloads (see README.md).\n\
     # job <kernel> <config> <flow> <sched> <clock_ns>=<latency>,<II>,<BRAM>,<DSP>,<FF>,<LUT> ...\n\
     # dse <kernel> <clock_ns>=<best point>,<best latency> ...\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "job %s %s %s %s" s.kernel s.config (Flow.flow_name s.flow)
        (B.sched_name s.sched);
      List.iter2
        (fun c qors -> Printf.fprintf oc " %s=%s" (clock c) (List.nth qors i))
        serve_clocks results;
      output_char oc '\n')
    grid;
  List.iter
    (fun kernel ->
      let k = Option.get (K.by_name kernel) in
      Printf.fprintf oc "dse %s" kernel;
      List.iter
        (fun clock_ns ->
          let params = { Mhls_dse.Search.default_params with clock_ns } in
          let o = Mhls_dse.Search.search ~params ~scheds:B.all_scheds ~jobs k in
          match Mhls_dse.Search.best o with
          | Some b ->
              Printf.fprintf oc " %s=%s,%d" (clock clock_ns) b.Mhls_dse.Search.pt_label
                b.Mhls_dse.Search.pt_report.E.latency
          | None -> failwith ("no DSE best point for " ^ kernel))
        dse_clocks;
      output_char oc '\n')
    (kernels ());
  close_out oc
