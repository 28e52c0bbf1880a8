(** Batch-level pass traces: per-job, per-pass records assembled from
    {!Support.Tracing} events, emitted as JSON (one object per job per
    pass) plus an aggregate summary table.

    Trace schema, version {!schema_version} — one top-level object:
    {v
    { "version": 1,
      "tool": "<tool version>",
      "records": [
        { "job": "...", "kernel": "...", "flow": "direct-ir",
          "stage": "adaptor", "pass": "typed-pointers",
          "seconds": 0.000123, "instrs_before": 120,
          "instrs_after": 118, "minor_words": 20480,
          "major_words": 1024, "cached": false }, ... ] }
    v}
    {!validate} checks a trace against this schema structurally; the
    golden schema test and CI both rely on it. *)

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
(* JSON emission                                                      *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** The record's fields, in schema order, as (key, rendered value). *)
let record_fields (r : record) : (string * string) list =
  [
    ("job", Printf.sprintf "\"%s\"" (json_escape r.tr_job));
    ("kernel", Printf.sprintf "\"%s\"" (json_escape r.tr_kernel));
    ("flow", Printf.sprintf "\"%s\"" (json_escape r.tr_flow));
    ("stage", Printf.sprintf "\"%s\"" (json_escape r.tr_stage));
    ("pass", Printf.sprintf "\"%s\"" (json_escape r.tr_pass));
    ("seconds", Printf.sprintf "%.6f" r.tr_seconds);
    ("instrs_before", string_of_int r.tr_instrs_before);
    ("instrs_after", string_of_int r.tr_instrs_after);
    ("minor_words", Printf.sprintf "%.0f" r.tr_minor_words);
    ("major_words", Printf.sprintf "%.0f" r.tr_major_words);
    ("cached", string_of_bool r.tr_cached);
  ]

let record_to_json (r : record) : string =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v)
         (record_fields r))
  ^ "}"

let to_json ~(tool : string) (records : record list) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"version\": %d, \"tool\": \"%s\", \"records\": [\n"
       schema_version (json_escape tool));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b ("  " ^ record_to_json r))
    records;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_file ~tool path records =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json ~tool records))

(* ------------------------------------------------------------------ *)
(* Schema validation                                                  *)
(* ------------------------------------------------------------------ *)

let required_keys =
  [
    "job"; "kernel"; "flow"; "stage"; "pass"; "seconds"; "instrs_before";
    "instrs_after"; "minor_words"; "major_words"; "cached";
  ]

(** Split the text of a JSON array of flat objects into the objects'
    texts (no nested objects in the schema, so brace counting is
    exact; braces inside strings are skipped). *)
let split_objects (s : string) : string list =
  let objs = ref [] in
  let depth = ref 0 and start = ref 0 and in_str = ref false in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if c = '"' && (i = 0 || s.[i - 1] <> '\\') then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' ->
            if !depth = 0 then start := i;
            incr depth
        | '}' ->
            decr depth;
            if !depth = 0 then
              objs := String.sub s !start (i - !start + 1) :: !objs
        | _ -> ())
    s;
  List.rev !objs

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(** Structural schema check of a serialized trace: version marker,
    records array, and every record carrying exactly the required
    keys. *)
let validate (json : string) : (unit, string) result =
  if not (contains ~needle:(Printf.sprintf "\"version\": %d" schema_version) json)
  then Error (Printf.sprintf "missing \"version\": %d marker" schema_version)
  else if not (contains ~needle:"\"records\": [" json) then
    Error "missing \"records\" array"
  else
    let body =
      (* everything after the records marker; the header object brace
         is before it, so the remaining objects are exactly the
         records *)
      let marker = "\"records\": [" in
      let rec find i =
        if i + String.length marker > String.length json then -1
        else if String.sub json i (String.length marker) = marker then i
        else find (i + 1)
      in
      let i = find 0 in
      String.sub json i (String.length json - i)
    in
    let objs = split_objects body in
    if objs = [] then Error "trace has no records"
    else
      let bad =
        List.concat_map
          (fun o ->
            List.filter_map
              (fun k ->
                if contains ~needle:(Printf.sprintf "\"%s\":" k) o then None
                else Some (Printf.sprintf "record %s lacks key \"%s\"" o k))
              required_keys)
          objs
      in
      match bad with [] -> Ok () | e :: _ -> Error e

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
