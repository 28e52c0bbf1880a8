(** Clocks, summary statistics and memory readings.

    Every duration comes from the monotonic clock bechamel installs
    (CLOCK_MONOTONIC, nanoseconds).  Never [Sys.time] (process CPU
    time) and never the program's own [o_seconds] / [wall_seconds] /
    [cr_seconds] / [stats] percentiles. *)

let now_ns () : int64 = Monotonic_clock.now ()

let since_s (t0 : int64) : float =
  Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(** [timed f] runs [f] and returns its result with the elapsed seconds. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(** Nearest-rank percentile, [p] in (0, 1]. *)
let percentile (p : float) (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(** The 99th percentile, or the highest percentile below it that still
    has ten samples beyond it: a tail read off fewer samples is the
    slowest one or two, which says more about the host than the code. *)
let tail (xs : float list) : float =
  let n = float_of_int (List.length xs) in
  percentile (Float.max 0.5 (Float.min 0.99 (1. -. (10. /. n)))) xs

(** Median; the mean of the two middle values for an even count. *)
let median (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Geometric mean; summed in sorted order so the result does not
    depend on the order the values arrived in. *)
let geomean (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. sorted
        /. float_of_int (List.length sorted))

(** Peak resident set size of a process in MB ([VmHWM]). *)
let peak_rss_mb ?(pid = "self") () : float =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(** Restart this process's peak-RSS counter from its current RSS, so
    set-up work does not count towards the measured peak. *)
let reset_peak_rss () : unit =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
      output_string oc "5")
