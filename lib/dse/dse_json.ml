(** Versioned [dse.json] frontier export + schema validator.

    Schema, version {!schema_version} — one top-level object, printed
    by {!Support.Json} on a single line:
    {v
    { "version": 1,
      "tool": "<tool version>",
      "kernel": "gemm",
      "space_size": 384,
      "evaluated": 42,
      "full_evals": 42,
      "cache_hits": 0,
      "stopped": "stable",
      "rounds": [
        { "round": 1, "candidates": 8, "frontier": 3 }, ... ],
      "frontier": [
        { "label": "middle-ii1-u1-A4-B4", "strategy": "middle",
          "ii": 1, "unroll": 1,
          "partitions": [ { "array": "A", "dim": 2, "factor": 4 }, ... ],
          "latency": 310, "bram": 8, "dsp": 20, "ff": 1480,
          "lut": 2210 }, ... ] }
    v}

    Frontier points estimated by the dynamic backend additionally
    carry ["sched": "dynamic"] (after ["unroll"]); statically-scheduled
    points keep the historical keys.

    Everything in the file is deterministic for a given cache state —
    wall-clock never appears, so a [--jobs 4] export is byte-identical
    to a [--jobs 1] one.  {!validate} parses an export and decodes it
    against the schema (as the trace validator does); the CLI
    validates what it just wrote, and CI asserts on that. *)

module E = Hls_backend.Estimate
module K = Workloads.Kernels
module J = Support.Json

let schema_version = 1

let point_to_json (p : Search.point) : J.t =
  let c = Space.canonical p.Search.pt_config in
  let r = p.Search.pt_report in
  let partition (arr, _kind, factor, dim) =
    J.Obj [ ("array", J.Str arr); ("dim", J.Int dim); ("factor", J.Int factor) ]
  in
  J.Obj
    ([
       ("label", J.Str p.Search.pt_label);
       ( "strategy",
         J.Str
           (match c.Space.c_strategy with
           | K.Inner -> "inner"
           | K.Middle -> "middle") );
       ("ii", J.Int c.Space.c_ii);
       ("unroll", J.Int c.Space.c_unroll);
     ]
    (* only off the default: static points carry no "sched" *)
    @ (match c.Space.c_sched with
      | Hls_backend.Backend.Static -> []
      | Hls_backend.Backend.Dynamic -> [ ("sched", J.Str "dynamic") ])
    @ [
        ( "partitions",
          J.List (List.map partition p.Search.pt_directives.K.partitions) );
        ("latency", J.Int r.E.latency);
        ("bram", J.Int r.E.resources.E.bram);
        ("dsp", J.Int r.E.resources.E.dsp);
        ("ff", J.Int r.E.resources.E.ff);
        ("lut", J.Int r.E.resources.E.lut);
      ])

let round_to_json (rs : Search.round_stat) : J.t =
  J.Obj
    [
      ("round", J.Int rs.Search.rs_round);
      ("candidates", J.Int rs.Search.rs_candidates);
      ("frontier", J.Int rs.Search.rs_frontier);
    ]

(** Serialize an outcome.  [tool] is the driver's version string. *)
let to_json ~(tool : string) (o : Search.outcome) : string =
  J.to_string
    (J.Obj
       [
         ("version", J.Int schema_version);
         ("tool", J.Str tool);
         ("kernel", J.Str o.Search.o_kernel);
         ("space_size", J.Int (Space.size o.Search.o_space));
         ("evaluated", J.Int o.Search.o_evaluated);
         ("full_evals", J.Int o.Search.o_full_evals);
         ("cache_hits", J.Int o.Search.o_cache_hits);
         ("stopped", J.Str (Search.stop_reason_name o.Search.o_stopped));
         ("rounds", J.List (List.map round_to_json o.Search.o_rounds));
         ("frontier", J.List (List.map point_to_json o.Search.o_frontier));
       ])
  ^ "\n"

let write_file ~tool path (o : Search.outcome) : unit =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json ~tool o))

(* ------------------------------------------------------------------ *)
(* Schema validation                                                  *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* field checkers: [check key obj] reads the key at its schema type *)
let str k j = Result.map ignore (J.get_str k j)
let opt_str k j = Result.map ignore (J.get_opt_str k j)
let int k j = Result.map ignore (J.get_int k j)

(** [Error] unless object [j] has no key outside [fields] and every
    field passes its checker. *)
let check_object fields (j : J.t) : (unit, string) result =
  let* () = J.only_keys (List.map fst fields) j in
  List.fold_left
    (fun acc (k, check) ->
      let* () = acc in
      check k j)
    (Ok ()) fields

(** Field [k] is a list of objects, each passing [check_object fields]. *)
let objects fields k j =
  let* xs = J.get_list k j in
  Result.map_error (fun e -> k ^ ": " ^ e)
    (J.decode_list (check_object fields) xs |> Result.map ignore)

let partition_fields = [ ("array", str); ("dim", int); ("factor", int) ]
let round_fields = [ ("round", int); ("candidates", int); ("frontier", int) ]

let point_fields =
  [
    ("label", str); ("strategy", str); ("ii", int); ("unroll", int);
    ("sched", opt_str); ("partitions", objects partition_fields);
    ("latency", int); ("bram", int); ("dsp", int); ("ff", int); ("lut", int);
  ]

let header_fields =
  [
    ("version", int); ("tool", str); ("kernel", str); ("space_size", int);
    ("evaluated", int); ("full_evals", int); ("cache_hits", int);
    ("stopped", str); ("rounds", objects round_fields);
    ("frontier", objects point_fields);
  ]

(** Schema check of a serialized export: it must parse, carry version
    {!schema_version}, and have exactly the header and point keys, each
    of its type.  An empty frontier is an error — the search always
    finds at least the baseline unless every config is infeasible, and
    then the export should not be trusted. *)
let validate (json : string) : (unit, string) result =
  let* j = J.parse json in
  let* version = J.get_int "version" j in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported dse.json version %d" version)
  else
    let* () = check_object header_fields j in
    if J.list_member "frontier" j = Some [] then Error "frontier is empty"
    else Ok ()

let validate_file (path : string) : (unit, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | json -> validate json
  | exception Sys_error e -> Error e
