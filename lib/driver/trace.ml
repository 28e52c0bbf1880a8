(** Batch-level pass traces: per-job, per-pass records assembled from
    {!Support.Tracing} events, emitted as JSON (one object per job per
    pass) plus an aggregate summary table.

    Trace schema, version {!schema_version} — one top-level object,
    printed by {!Support.Json} on a single line:
    {v
    { "version": 1,
      "tool": "<tool version>",
      "records": [
        { "job": "...", "kernel": "...", "flow": "direct-ir",
          "stage": "adaptor", "pass": "typed-pointers",
          "seconds": 0.000123456, "instrs_before": 120,
          "instrs_after": 118, "minor_words": 20480,
          "major_words": 1024, "cached": false }, ... ] }
    v}
    ["seconds"] is a float in shortest round-trip form; the word
    counts are integers.  {!of_json} decodes a parsed trace back into
    records and {!validate} checks text against the schema; the golden
    schema test and CI both rely on it. *)

type record = {
  tr_job : string;  (** job label the pass ran under *)
  tr_kernel : string;
  tr_flow : string;  (** ["direct-ir"] | ["hls-cpp"] *)
  tr_stage : string;
  tr_pass : string;
  tr_seconds : float;
  tr_instrs_before : int;
  tr_instrs_after : int;
  tr_minor_words : float;  (** words allocated on the minor heap *)
  tr_major_words : float;  (** words allocated directly on the major heap *)
  tr_cached : bool;
      (** reused, not re-run: served from the result cache, or a
          sibling job's front-end run shared within a batch *)
}

let schema_version = 1

let of_event ~job ~kernel ~flow ~cached (e : Support.Tracing.event) : record =
  {
    tr_job = job;
    tr_kernel = kernel;
    tr_flow = flow;
    tr_stage = e.Support.Tracing.ev_stage;
    tr_pass = e.Support.Tracing.ev_pass;
    tr_seconds = e.Support.Tracing.ev_seconds;
    tr_instrs_before = e.Support.Tracing.ev_instrs_before;
    tr_instrs_after = e.Support.Tracing.ev_instrs_after;
    tr_minor_words = e.Support.Tracing.ev_minor_words;
    tr_major_words = e.Support.Tracing.ev_major_words;
    tr_cached = cached;
  }

(* ------------------------------------------------------------------ *)
(* JSON codec                                                         *)
(* ------------------------------------------------------------------ *)

module J = Support.Json

(** The record's fields, in schema order.  Word counts are whole
    numbers, so they travel as integers. *)
let record_fields (r : record) : (string * J.t) list =
  [
    ("job", J.Str r.tr_job);
    ("kernel", J.Str r.tr_kernel);
    ("flow", J.Str r.tr_flow);
    ("stage", J.Str r.tr_stage);
    ("pass", J.Str r.tr_pass);
    ("seconds", J.Float r.tr_seconds);
    ("instrs_before", J.Int r.tr_instrs_before);
    ("instrs_after", J.Int r.tr_instrs_after);
    ("minor_words", J.Int (int_of_float r.tr_minor_words));
    ("major_words", J.Int (int_of_float r.tr_major_words));
    ("cached", J.Bool r.tr_cached);
  ]

let to_json ~(tool : string) (records : record list) : string =
  J.to_string
    (J.Obj
       [
         ("version", J.Int schema_version);
         ("tool", J.Str tool);
         ( "records",
           J.List (List.map (fun r -> J.Obj (record_fields r)) records) );
       ])
  ^ "\n"

let write_file ~tool path records =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json ~tool records))

let ( let* ) = Result.bind

let record_of_json (j : J.t) : (record, string) result =
  let* tr_job = J.get_str "job" j in
  let* tr_kernel = J.get_str "kernel" j in
  let* tr_flow = J.get_str "flow" j in
  let* tr_stage = J.get_str "stage" j in
  let* tr_pass = J.get_str "pass" j in
  let* tr_seconds = J.get_float "seconds" j in
  let* tr_instrs_before = J.get_int "instrs_before" j in
  let* tr_instrs_after = J.get_int "instrs_after" j in
  let* minor = J.get_int "minor_words" j in
  let* major = J.get_int "major_words" j in
  let* tr_cached = J.get_bool "cached" j in
  let r =
    {
      tr_job; tr_kernel; tr_flow; tr_stage; tr_pass; tr_seconds;
      tr_instrs_before; tr_instrs_after;
      tr_minor_words = float_of_int minor;
      tr_major_words = float_of_int major;
      tr_cached;
    }
  in
  (* the encoder's own keys, so whatever it writes decodes *)
  let* () = J.only_keys (List.map fst (record_fields r)) j in
  Ok r

(** Decode a parsed trace: the version must be {!schema_version}, the
    tool a string, and the records a non-empty list of objects with
    exactly the schema's keys, each of its type. *)
let of_json (j : J.t) : (record list, string) result =
  let* version = J.get_int "version" j in
  let* () =
    if version = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported trace version %d" version)
  in
  let* _tool = J.get_str "tool" j in
  let* records = J.get_list "records" j in
  if records = [] then Error "trace has no records"
  else
    J.decode_list
      (fun r ->
        Result.map_error (fun e -> "trace record: " ^ e) (record_of_json r))
      records

let validate (json : string) : (unit, string) result =
  let* j = J.parse json in
  Result.map ignore (of_json j)

(* ------------------------------------------------------------------ *)
(* Aggregate summary                                                  *)
(* ------------------------------------------------------------------ *)

(** Per-(stage, pass) aggregate over a batch: run count, total and mean
    time, and the net IR delta — the "where does compile time go and
    what does each pass actually do" table.  Only passes that ran in
    this batch count: cached records (a cache hit's, or a sibling
    job's shared front-end) are left out of every column and counted
    on the footer line instead. *)
let summary_table (records : record list) : string =
  let tbl : (string * string, int * float * int) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  let cached, ran = List.partition (fun r -> r.tr_cached) records in
  List.iter
    (fun r ->
      let k = (r.tr_stage, r.tr_pass) in
      if not (Hashtbl.mem tbl k) then order := k :: !order;
      let n, secs, delta =
        Option.value ~default:(0, 0.0, 0) (Hashtbl.find_opt tbl k)
      in
      Hashtbl.replace tbl k
        ( n + 1,
          secs +. r.tr_seconds,
          delta + (r.tr_instrs_after - r.tr_instrs_before) ))
    ran;
  let t =
    Support.Table.create
      ~aligns:
        [ Support.Table.Left; Support.Table.Left; Support.Table.Right;
          Support.Table.Right; Support.Table.Right; Support.Table.Right ]
      [ "stage"; "pass"; "runs"; "total (ms)"; "mean (ms)"; "IR delta" ]
  in
  List.iter
    (fun (stage, pass) ->
      let n, secs, delta = Hashtbl.find tbl (stage, pass) in
      Support.Table.add_row t
        [
          stage;
          pass;
          string_of_int n;
          Printf.sprintf "%.2f" (secs *. 1000.0);
          Printf.sprintf "%.3f" (secs *. 1000.0 /. float_of_int n);
          Printf.sprintf "%+d" delta;
        ])
    (List.rev !order);
  Support.Table.render t
  ^ Printf.sprintf "\ncached: %d records reused, not re-run (not counted above)"
      (List.length cached)
