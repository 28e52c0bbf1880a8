(** The serve protocol, schema v1: typed request / response / event
    variants with a two-way JSON codec and length-prefixed wire
    framing.

    This module is the {e single} definition of every job the compiler
    can run as a service — the CLI handlers ([Mhls_cli.Handlers]) and
    the daemon dispatcher both consume these types, so the two surfaces
    cannot drift.  Errors are carried as {!Support.Diag.t} lists (the
    unified result convention), never free-form strings; protocol-level
    failures (unparseable frame, unknown kind, unknown key) use rule
    [HLS905].

    Wire format: each frame is a 4-byte big-endian byte length followed
    by one JSON document.  Three frame shapes, discriminated by the
    ["frame"] field:

    - [{"v":1,"frame":"request","id":N,"stream":B,"kind":K,...}]
    - [{"v":1,"frame":"response","id":N,"status":"ok"|"error"|"busy",...}]
    - [{"v":1,"frame":"event","id":N,"stage":S,"pass":P,...}]

    Responses and events carry the id of the request they answer, so a
    client may pipeline several requests over one connection. *)

module Diag = Support.Diag
module Json = Support.Json

(** Schema version stamped into (and checked on) every frame. *)
let version = 1

(** Rule ID for protocol-level failures (malformed frame, unknown
    kind, missing field, admission rejection). *)
let rule_protocol = "HLS905"

(** Rule ID for a refused daemon startup: the requested socket path is
    owned by a {e live} daemon (it accepted a probe connection), so
    unlinking it would hijack that daemon's clients. *)
let rule_socket_in_use = "HLS906"

let protocol_error fmt = Diag.error ~rule:rule_protocol fmt

(** Reserved response id for errors that cannot be attributed to any
    request — a malformed frame (no parseable id) or a client-sent
    response/event frame.  Real request ids are non-negative; the
    server echoes a request's own id otherwise, so a client seeing
    [sentinel_id] knows the error is connection-level, not a reply to
    anything it sent. *)
let sentinel_id = -1

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

(** Directive configuration, mirroring [Workloads.Kernels.directives]
    structurally so the protocol layer needs no kernel knowledge. *)
type directives = {
  d_ii : int option;  (** pipeline target II; [None] disables *)
  d_unroll : int option;
  d_strategy : string;  (** ["inner"] | ["middle"] *)
  d_partitions : (string * string * int * int) list;
      (** (array, kind, factor, dim) *)
}

let no_directives =
  { d_ii = Some 1; d_unroll = None; d_strategy = "inner"; d_partitions = [] }

type compile_req = {
  c_kernel : string;
  c_flow : string;  (** ["direct"] | ["cpp"] *)
  c_sched : string;  (** ["static"] | ["dynamic"] *)
  c_directives : directives;
  c_clock_ns : float;
  c_passes : string list option;  (** exact adaptor pipeline, if given *)
  c_disable : string list;
}

type lint_req = {
  l_kernel : string option;  (** built-in kernel… *)
  l_source : string option;  (** …or raw IR text (exactly one) *)
  l_directives : directives;
  l_rules : string list option;
  l_werror : bool;
  l_top : string option;
  l_passes : string list option;
  l_disable : string list;
}

type opt_req = {
  op_source : string option;  (** raw IR text… *)
  op_synth : int option;  (** …or a generated N-function module *)
  op_passes : string list option;
  op_parallel : bool;
  op_jobs : int;
  op_parsafe : bool;  (** only run the parallel-safety checker *)
  op_json : bool;  (** with [op_parsafe]: JSON verdict *)
}

type dse_req = {
  ds_kernel : string;
  ds_sched : string;  (** ["static"] | ["dynamic"] | ["both"] *)
  ds_max_evals : int option;
  ds_rounds : int option;
  ds_stable : int option;
  ds_budget_bram : int option;
  ds_budget_dsp : int option;
  ds_budget_lut : int option;
  ds_clock_ns : float;
}

type fuzz_req = {
  f_seed : int;
  f_count : int;
  f_stages : string list;
  f_shrink : bool;
  f_jobs : int;
}

type request =
  | Compile of compile_req
  | Lint of lint_req
  | Opt of opt_req
  | Dse of dse_req
  | Fuzz of fuzz_req
  | List_kernels
  | Stats
  | Ping
  | Shutdown

let request_kind = function
  | Compile _ -> "compile"
  | Lint _ -> "lint"
  | Opt _ -> "opt"
  | Dse _ -> "dse"
  | Fuzz _ -> "fuzz"
  | List_kernels -> "list"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

type compile_resp = {
  cr_kernel : string;
  cr_flow : string;  (** canonical flow name, e.g. ["direct-ir"] *)
  cr_latency : int;
  cr_ii : int;
  cr_bram : int;
  cr_dsp : int;
  cr_lut : int;
  cr_seconds : float;  (** front-end compile seconds (original run) *)
  cr_from_cache : bool;  (** served by the driver's result cache *)
  cr_adaptor : string option;  (** rendered adaptor report *)
  cr_report : string;  (** rendered synthesis report (deterministic) *)
}

type lint_resp = { lr_diags : Diag.t list }

type opt_resp = {
  or_ir : string;  (** optimized module text (empty under [op_parsafe]) *)
  or_passes : int;
  or_seconds : float;
  or_par_status : string option;
  or_verdict : string option;  (** rendered Parsafe verdict *)
  or_safe : bool;
}

type dse_resp = {
  dr_report : string;  (** rendered frontier + search statistics *)
  dr_best : (string * int) option;  (** label, latency *)
  dr_json : string;  (** versioned dse.json export *)
}

type fuzz_resp = { fr_report : string; fr_failures : int }

type kernel_info = { k_name : string; k_description : string }

type latency_stat = {
  ls_kind : string;
  ls_count : int;
  ls_p50_ms : float;
  ls_p99_ms : float;
}

type stats_resp = {
  st_served : int;  (** responses sent (excluding busy rejections) *)
  st_evaluated : int;  (** dispatcher evaluations actually run *)
  st_coalesced : int;  (** requests that shared an in-flight evaluation *)
  st_memo_hits : int;  (** requests served from the response memo *)
  st_busy : int;  (** admission rejections *)
  st_cache_hits : int;  (** driver result-cache hits (session-wide) *)
  st_cache_misses : int;
  st_queue_depth : int;  (** pending requests at the time of answering *)
  st_queue_max : int;  (** admission-control bound *)
  st_inflight : int;  (** groups currently evaluating on the pool *)
  st_running : (string * int) list;
      (** in-flight groups per kind, sorted by kind (only kinds > 0) *)
  st_cancelled : int;
      (** queued groups dropped because every waiter disconnected *)
  st_shed : int;  (** memo/ring shed events under [--max-rss-mb] *)
  st_latency : latency_stat list;  (** per job kind, sorted by kind *)
}

type payload =
  | R_compile of compile_resp
  | R_lint of lint_resp
  | R_opt of opt_resp
  | R_dse of dse_resp
  | R_fuzz of fuzz_resp
  | R_list of kernel_info list
  | R_stats of stats_resp
  | R_pong
  | R_shutdown

let payload_kind = function
  | R_compile _ -> "compile"
  | R_lint _ -> "lint"
  | R_opt _ -> "opt"
  | R_dse _ -> "dse"
  | R_fuzz _ -> "fuzz"
  | R_list _ -> "list"
  | R_stats _ -> "stats"
  | R_pong -> "ping"
  | R_shutdown -> "shutdown"

(** How one request was answered. *)
type reply =
  | Done of payload
  | Failed of Diag.t list
  | Busy of int  (** rejected by admission control; carries queue depth *)

type event = {
  e_id : int;
  e_stage : string;
  e_pass : string;
  e_seconds : float;
  e_before : int;
  e_after : int;
}

type frame =
  | Request of { q_id : int; q_stream : bool; q_req : request }
  | Response of { r_id : int; r_reply : reply }
  | Event of event

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let str_list xs = Json.List (List.map (fun s -> Json.Str s) xs)
let opt_int = Json.option (fun i -> Json.Int i)
let opt_str = Json.option (fun s -> Json.Str s)
let opt_str_list = Json.option str_list

let directives_fields (d : directives) : (string * Json.t) list =
  [
    ("ii", opt_int d.d_ii);
    ("unroll", opt_int d.d_unroll);
    ("strategy", Json.Str d.d_strategy);
    ( "partitions",
      Json.List
        (List.map
           (fun (a, kind, f, dim) ->
             Json.List
               [ Json.Str a; Json.Str kind; Json.Int f; Json.Int dim ])
           d.d_partitions) );
  ]

let directives_to_json (d : directives) : Json.t = Json.Obj (directives_fields d)

let request_fields : request -> (string * Json.t) list = function
  | Compile c ->
      [
        ("kernel", Json.Str c.c_kernel);
        ("flow", Json.Str c.c_flow);
        ("sched", Json.Str c.c_sched);
        ("directives", directives_to_json c.c_directives);
        ("clock_ns", Json.Float c.c_clock_ns);
        ("passes", opt_str_list c.c_passes);
        ("disable", str_list c.c_disable);
      ]
  | Lint l ->
      [
        ("kernel", opt_str l.l_kernel);
        ("source", opt_str l.l_source);
        ("directives", directives_to_json l.l_directives);
        ("rules", opt_str_list l.l_rules);
        ("werror", Json.Bool l.l_werror);
        ("top", opt_str l.l_top);
        ("passes", opt_str_list l.l_passes);
        ("disable", str_list l.l_disable);
      ]
  | Opt o ->
      [
        ("source", opt_str o.op_source);
        ("synth", opt_int o.op_synth);
        ("passes", opt_str_list o.op_passes);
        ("parallel", Json.Bool o.op_parallel);
        ("jobs", Json.Int o.op_jobs);
        ("parsafe", Json.Bool o.op_parsafe);
        ("json", Json.Bool o.op_json);
      ]
  | Dse d ->
      [
        ("kernel", Json.Str d.ds_kernel);
        ("sched", Json.Str d.ds_sched);
        ("max_evals", opt_int d.ds_max_evals);
        ("rounds", opt_int d.ds_rounds);
        ("stable_rounds", opt_int d.ds_stable);
        ("budget_bram", opt_int d.ds_budget_bram);
        ("budget_dsp", opt_int d.ds_budget_dsp);
        ("budget_lut", opt_int d.ds_budget_lut);
        ("clock_ns", Json.Float d.ds_clock_ns);
      ]
  | Fuzz f ->
      [
        ("seed", Json.Int f.f_seed);
        ("count", Json.Int f.f_count);
        ("stages", str_list f.f_stages);
        ("shrink", Json.Bool f.f_shrink);
        ("jobs", Json.Int f.f_jobs);
      ]
  | List_kernels | Stats | Ping | Shutdown -> []

(** The request object alone (no frame envelope) — what [mhlsc client
    --request] accepts and what {!request_key} canonicalizes. *)
let request_to_json (r : request) : Json.t =
  Json.Obj (("kind", Json.Str (request_kind r)) :: request_fields r)

let payload_fields : payload -> (string * Json.t) list = function
  | R_compile r ->
      [
        ("kernel", Json.Str r.cr_kernel);
        ("flow", Json.Str r.cr_flow);
        ("latency", Json.Int r.cr_latency);
        ("ii", Json.Int r.cr_ii);
        ("bram", Json.Int r.cr_bram);
        ("dsp", Json.Int r.cr_dsp);
        ("lut", Json.Int r.cr_lut);
        ("seconds", Json.Float r.cr_seconds);
        ("from_cache", Json.Bool r.cr_from_cache);
        ("adaptor", opt_str r.cr_adaptor);
        ("report", Json.Str r.cr_report);
      ]
  | R_lint r ->
      [ ("diagnostics", Json.List (List.map Diag.json r.lr_diags)) ]
  | R_opt r ->
      [
        ("ir", Json.Str r.or_ir);
        ("passes", Json.Int r.or_passes);
        ("seconds", Json.Float r.or_seconds);
        ("par_status", opt_str r.or_par_status);
        ("verdict", opt_str r.or_verdict);
        ("safe", Json.Bool r.or_safe);
      ]
  | R_dse r ->
      [
        ("report", Json.Str r.dr_report);
        ( "best",
          match r.dr_best with
          | None -> Json.Null
          | Some (label, latency) ->
              Json.Obj
                [ ("label", Json.Str label); ("latency", Json.Int latency) ]
        );
        ("dse_json", Json.Str r.dr_json);
      ]
  | R_fuzz r ->
      [
        ("report", Json.Str r.fr_report);
        ("failures", Json.Int r.fr_failures);
      ]
  | R_list ks ->
      [
        ( "kernels",
          Json.List
            (List.map
               (fun k ->
                 Json.Obj
                   [
                     ("name", Json.Str k.k_name);
                     ("description", Json.Str k.k_description);
                   ])
               ks) );
      ]
  | R_stats s ->
      [
        ("served", Json.Int s.st_served);
        ("evaluated", Json.Int s.st_evaluated);
        ("coalesced", Json.Int s.st_coalesced);
        ("memo_hits", Json.Int s.st_memo_hits);
        ("busy", Json.Int s.st_busy);
        ("cache_hits", Json.Int s.st_cache_hits);
        ("cache_misses", Json.Int s.st_cache_misses);
        ("queue_depth", Json.Int s.st_queue_depth);
        ("queue_max", Json.Int s.st_queue_max);
        ("inflight", Json.Int s.st_inflight);
        ( "running",
          Json.List
            (List.map
               (fun (kind, n) ->
                 Json.Obj [ ("kind", Json.Str kind); ("n", Json.Int n) ])
               s.st_running) );
        ("cancelled", Json.Int s.st_cancelled);
        ("shed", Json.Int s.st_shed);
        ( "latency",
          Json.List
            (List.map
               (fun l ->
                 Json.Obj
                   [
                     ("kind", Json.Str l.ls_kind);
                     ("count", Json.Int l.ls_count);
                     ("p50_ms", Json.Float l.ls_p50_ms);
                     ("p99_ms", Json.Float l.ls_p99_ms);
                   ])
               s.st_latency) );
      ]
  | R_pong | R_shutdown -> []

let payload_to_json (p : payload) : Json.t =
  Json.Obj (("kind", Json.Str (payload_kind p)) :: payload_fields p)

let frame_to_json : frame -> Json.t = function
  | Request { q_id; q_stream; q_req } ->
      Json.Obj
        (("v", Json.Int version)
        :: ("frame", Json.Str "request")
        :: ("id", Json.Int q_id)
        :: ("stream", Json.Bool q_stream)
        :: ("kind", Json.Str (request_kind q_req))
        :: request_fields q_req)
  | Response { r_id; r_reply } -> (
      let base =
        [
          ("v", Json.Int version);
          ("frame", Json.Str "response");
          ("id", Json.Int r_id);
        ]
      in
      match r_reply with
      | Done p ->
          Json.Obj
            (base
            @ [
                ("status", Json.Str "ok");
                ("kind", Json.Str (payload_kind p));
                ("payload", Json.Obj (payload_fields p));
              ])
      | Failed ds ->
          Json.Obj
            (base
            @ [
                ("status", Json.Str "error");
                ("diagnostics", Json.List (List.map Diag.json ds));
              ])
      | Busy depth ->
          Json.Obj
            (base
            @ [ ("status", Json.Str "busy"); ("queue_depth", Json.Int depth) ]
            ))
  | Event e ->
      Json.Obj
        [
          ("v", Json.Int version);
          ("frame", Json.Str "event");
          ("id", Json.Int e.e_id);
          ("stage", Json.Str e.e_stage);
          ("pass", Json.Str e.e_pass);
          ("seconds", Json.Float e.e_seconds);
          ("before", Json.Int e.e_before);
          ("after", Json.Int e.e_after);
        ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)
(* ------------------------------------------------------------------ *)

(** Field [name] through [conv]; absent or [null] is [default]. *)
let get_or what conv ~default name j =
  Result.map (Option.value ~default) (Json.opt_field what conv name j)

let to_str_list v =
  Option.bind (Json.to_list v) (fun xs ->
      let ss = List.filter_map Json.to_str xs in
      if List.length ss = List.length xs then Some ss else None)

let get_opt_int = Json.opt_field "an integer" Json.to_int
let get_int = get_or "an integer" Json.to_int
let get_bool = get_or "a boolean" Json.to_bool
let get_float = get_or "a number" Json.to_float
let get_opt_str_list = Json.opt_field "a string list" to_str_list
let get_str_list = get_or "a string list" to_str_list
let get_opt_list = get_or "a list" Json.to_list ~default:[]

let ( let* ) = Result.bind

(** Keys a request object may carry besides its own fields: the frame
    envelope and the kind. *)
let envelope_keys = [ "v"; "frame"; "id"; "stream"; "kind" ]

(** Reject the first key of object [j] outside [envelope @ known]: a
    misspelled knob must fail, not silently take its default.  [known]
    comes from the encoder's own field list, so whatever this module
    encodes decodes. *)
let only_known_keys ~what ?(envelope = []) (known : (string * Json.t) list)
    (j : Json.t) : (unit, string) result =
  let known = List.map fst known in
  Result.map_error
    (fun e ->
      Printf.sprintf "%s in %s (known: %s)" e what (String.concat ", " known))
    (Json.only_keys (envelope @ known) j)

let directives_of_json (j : Json.t) : (directives, string) result =
  match j with
  | Json.Null -> Ok no_directives
  | Json.Obj _ ->
      let* d_ii = get_opt_int "ii" j in
      let* d_unroll = get_opt_int "unroll" j in
      let* d_strategy =
        match Json.get_opt_str "strategy" j with
        | Ok None -> Ok "inner"
        | Ok (Some s) -> Ok s
        | Error e -> Error e
      in
      let* d_partitions =
        let* xs = get_opt_list "partitions" j in
        Json.decode_list
          (function
            | Json.List [ Json.Str a; Json.Str kind; Json.Int f; Json.Int dim ]
              ->
                Ok (a, kind, f, dim)
            | _ ->
                Error "partitions entries must be [array, kind, factor, dim]")
          xs
      in
      let d = { d_ii; d_unroll; d_strategy; d_partitions } in
      let* () = only_known_keys ~what:"directives" (directives_fields d) j in
      Ok d
  | _ -> Error "field 'directives' must be an object"

let directives_member (j : Json.t) : (directives, string) result =
  match Json.member "directives" j with
  | None -> Ok no_directives
  | Some d -> directives_of_json d

(** Decode a request object's fields, ignoring unknown keys. *)
let request_fields_of_json (j : Json.t) : (request, string) result =
  let* kind = Json.get_str "kind" j in
  match kind with
  | "compile" ->
      let* c_kernel = Json.get_str "kernel" j in
      let* c_flow =
        match Json.get_opt_str "flow" j with
        | Ok None -> Ok "direct"
        | Ok (Some f) -> Ok f
        | Error e -> Error e
      in
      let* c_sched =
        (* lenient default keeps pre-1.6 schema-v1 encodings valid *)
        match Json.get_opt_str "sched" j with
        | Ok None -> Ok "static"
        | Ok (Some s) -> Ok s
        | Error e -> Error e
      in
      let* c_directives = directives_member j in
      let* c_clock_ns = get_float ~default:10.0 "clock_ns" j in
      let* c_passes = get_opt_str_list "passes" j in
      let* c_disable = get_str_list ~default:[] "disable" j in
      Ok
        (Compile
           { c_kernel; c_flow; c_sched; c_directives; c_clock_ns; c_passes;
             c_disable })
  | "lint" ->
      let* l_kernel = Json.get_opt_str "kernel" j in
      let* l_source = Json.get_opt_str "source" j in
      let* l_directives = directives_member j in
      let* l_rules = get_opt_str_list "rules" j in
      let* l_werror = get_bool ~default:false "werror" j in
      let* l_top = Json.get_opt_str "top" j in
      let* l_passes = get_opt_str_list "passes" j in
      let* l_disable = get_str_list ~default:[] "disable" j in
      Ok
        (Lint
           { l_kernel; l_source; l_directives; l_rules; l_werror; l_top;
             l_passes; l_disable })
  | "opt" ->
      let* op_source = Json.get_opt_str "source" j in
      let* op_synth = get_opt_int "synth" j in
      let* op_passes = get_opt_str_list "passes" j in
      let* op_parallel = get_bool ~default:false "parallel" j in
      let* op_jobs = get_int ~default:1 "jobs" j in
      let* op_parsafe = get_bool ~default:false "parsafe" j in
      let* op_json = get_bool ~default:false "json" j in
      Ok
        (Opt
           { op_source; op_synth; op_passes; op_parallel; op_jobs;
             op_parsafe; op_json })
  | "dse" ->
      let* ds_kernel = Json.get_str "kernel" j in
      let* ds_sched =
        match Json.get_opt_str "sched" j with
        | Ok None -> Ok "static"
        | Ok (Some s) -> Ok s
        | Error e -> Error e
      in
      let* ds_max_evals = get_opt_int "max_evals" j in
      let* ds_rounds = get_opt_int "rounds" j in
      let* ds_stable = get_opt_int "stable_rounds" j in
      let* ds_budget_bram = get_opt_int "budget_bram" j in
      let* ds_budget_dsp = get_opt_int "budget_dsp" j in
      let* ds_budget_lut = get_opt_int "budget_lut" j in
      let* ds_clock_ns = get_float ~default:10.0 "clock_ns" j in
      Ok
        (Dse
           { ds_kernel; ds_sched; ds_max_evals; ds_rounds; ds_stable;
             ds_budget_bram; ds_budget_dsp; ds_budget_lut; ds_clock_ns })
  | "fuzz" ->
      let* f_seed = get_int ~default:42 "seed" j in
      let* f_count = get_int ~default:200 "count" j in
      let* f_stages =
        get_str_list ~default:[ "lower"; "adapted"; "cpp" ] "stages" j
      in
      let* f_shrink = get_bool ~default:true "shrink" j in
      let* f_jobs = get_int ~default:1 "jobs" j in
      Ok (Fuzz { f_seed; f_count; f_stages; f_shrink; f_jobs })
  | "list" -> Ok List_kernels
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | k -> Error (Printf.sprintf "unknown request kind '%s'" k)

(** Decode a request object ([{"kind": ..., ...}], with or without the
    frame envelope).  Missing optional fields take their defaults, so
    hand-written client JSON stays short; an unknown key is an error
    naming it. *)
let request_of_json (j : Json.t) : (request, string) result =
  let* r = request_fields_of_json j in
  let* () =
    only_known_keys
      ~what:(request_kind r ^ " request")
      ~envelope:envelope_keys (request_fields r) j
  in
  Ok r

let diags_of_json (j : Json.t) name : (Diag.t list, string) result =
  match Json.member name j with
  | Some (Json.List xs) -> Json.decode_list Diag.of_json xs
  | _ -> Error (Printf.sprintf "missing diagnostics list '%s'" name)

let payload_of_json ~(kind : string) (j : Json.t) :
    (payload, string) result =
  match kind with
  | "compile" ->
      let* cr_kernel = Json.get_str "kernel" j in
      let* cr_flow = Json.get_str "flow" j in
      let* cr_latency = get_int ~default:0 "latency" j in
      let* cr_ii = get_int ~default:0 "ii" j in
      let* cr_bram = get_int ~default:0 "bram" j in
      let* cr_dsp = get_int ~default:0 "dsp" j in
      let* cr_lut = get_int ~default:0 "lut" j in
      let* cr_seconds = get_float ~default:0.0 "seconds" j in
      let* cr_from_cache = get_bool ~default:false "from_cache" j in
      let* cr_adaptor = Json.get_opt_str "adaptor" j in
      let* cr_report = Json.get_str "report" j in
      Ok
        (R_compile
           { cr_kernel; cr_flow; cr_latency; cr_ii; cr_bram; cr_dsp; cr_lut;
             cr_seconds; cr_from_cache; cr_adaptor; cr_report })
  | "lint" ->
      let* lr_diags = diags_of_json j "diagnostics" in
      Ok (R_lint { lr_diags })
  | "opt" ->
      let* or_ir = Json.get_str "ir" j in
      let* or_passes = get_int ~default:0 "passes" j in
      let* or_seconds = get_float ~default:0.0 "seconds" j in
      let* or_par_status = Json.get_opt_str "par_status" j in
      let* or_verdict = Json.get_opt_str "verdict" j in
      let* or_safe = get_bool ~default:true "safe" j in
      Ok
        (R_opt
           { or_ir; or_passes; or_seconds; or_par_status; or_verdict; or_safe })
  | "dse" ->
      let* dr_report = Json.get_str "report" j in
      let* dr_best =
        match Json.member "best" j with
        | None | Some Json.Null -> Ok None
        | Some b ->
            let* label = Json.get_str "label" b in
            let* latency = get_int ~default:0 "latency" b in
            Ok (Some (label, latency))
      in
      let* dr_json = Json.get_str "dse_json" j in
      Ok (R_dse { dr_report; dr_best; dr_json })
  | "fuzz" ->
      let* fr_report = Json.get_str "report" j in
      let* fr_failures = get_int ~default:0 "failures" j in
      Ok (R_fuzz { fr_report; fr_failures })
  | "list" ->
      let* xs = Json.get_list "kernels" j in
      let* ks =
        Json.decode_list
          (fun x ->
            let* k_name = Json.get_str "name" x in
            let* k_description = Json.get_str "description" x in
            Ok { k_name; k_description })
          xs
      in
      Ok (R_list ks)
  | "stats" ->
      let* st_served = get_int ~default:0 "served" j in
      let* st_evaluated = get_int ~default:0 "evaluated" j in
      let* st_coalesced = get_int ~default:0 "coalesced" j in
      let* st_memo_hits = get_int ~default:0 "memo_hits" j in
      let* st_busy = get_int ~default:0 "busy" j in
      let* st_cache_hits = get_int ~default:0 "cache_hits" j in
      let* st_cache_misses = get_int ~default:0 "cache_misses" j in
      let* st_queue_depth = get_int ~default:0 "queue_depth" j in
      let* st_queue_max = get_int ~default:0 "queue_max" j in
      (* The concurrency fields postdate schema v1's first release;
         absent means zero, keeping old daemons readable. *)
      let* st_inflight = get_int ~default:0 "inflight" j in
      let* st_running =
        let* xs = get_opt_list "running" j in
        Json.decode_list
          (fun x ->
            let* kind = Json.get_str "kind" x in
            let* n = get_int ~default:0 "n" x in
            Ok (kind, n))
          xs
      in
      let* st_cancelled = get_int ~default:0 "cancelled" j in
      let* st_shed = get_int ~default:0 "shed" j in
      let* st_latency =
        let* xs = get_opt_list "latency" j in
        Json.decode_list
          (fun x ->
            let* ls_kind = Json.get_str "kind" x in
            let* ls_count = get_int ~default:0 "count" x in
            let* ls_p50_ms = get_float ~default:0.0 "p50_ms" x in
            let* ls_p99_ms = get_float ~default:0.0 "p99_ms" x in
            Ok { ls_kind; ls_count; ls_p50_ms; ls_p99_ms })
          xs
      in
      Ok
        (R_stats
           { st_served; st_evaluated; st_coalesced; st_memo_hits; st_busy;
             st_cache_hits; st_cache_misses; st_queue_depth; st_queue_max;
             st_inflight; st_running; st_cancelled; st_shed; st_latency })
  | "ping" -> Ok R_pong
  | "shutdown" -> Ok R_shutdown
  | k -> Error (Printf.sprintf "unknown payload kind '%s'" k)

let frame_of_json (j : Json.t) : (frame, string) result =
  let* v = get_int ~default:0 "v" j in
  if v <> version then
    Error (Printf.sprintf "unsupported schema version %d (want %d)" v version)
  else
    let* shape = Json.get_str "frame" j in
    match shape with
    | "request" ->
        let* q_id = get_int ~default:0 "id" j in
        let* q_stream = get_bool ~default:false "stream" j in
        let* q_req = request_of_json j in
        Ok (Request { q_id; q_stream; q_req })
    | "response" -> (
        let* r_id = get_int ~default:0 "id" j in
        let* status = Json.get_str "status" j in
        match status with
        | "ok" ->
            let* kind = Json.get_str "kind" j in
            let* body =
              match Json.member "payload" j with
              | Some b -> Ok b
              | None -> Error "missing 'payload'"
            in
            let* p = payload_of_json ~kind body in
            Ok (Response { r_id; r_reply = Done p })
        | "error" ->
            let* ds = diags_of_json j "diagnostics" in
            Ok (Response { r_id; r_reply = Failed ds })
        | "busy" ->
            let* depth = get_int ~default:0 "queue_depth" j in
            Ok (Response { r_id; r_reply = Busy depth })
        | s -> Error (Printf.sprintf "unknown response status '%s'" s))
    | "event" ->
        let* e_id = get_int ~default:0 "id" j in
        let* e_stage = Json.get_str "stage" j in
        let* e_pass = Json.get_str "pass" j in
        let* e_seconds = get_float ~default:0.0 "seconds" j in
        let* e_before = get_int ~default:0 "before" j in
        let* e_after = get_int ~default:0 "after" j in
        Ok (Event { e_id; e_stage; e_pass; e_seconds; e_before; e_after })
    | s -> Error (Printf.sprintf "unknown frame shape '%s'" s)

let frame_to_string (f : frame) : string = Json.to_string (frame_to_json f)

let frame_of_string (s : string) : (frame, string) result =
  let* j = Json.parse s in
  frame_of_json j

(* ------------------------------------------------------------------ *)
(* Coalescing identity                                                *)
(* ------------------------------------------------------------------ *)

(** The request's content address for coalescing and response
    memoization: the canonical JSON of the request object (ids and
    stream flags excluded).  [None] for requests that must never be
    coalesced or memoized (stats, ping, shutdown — and [list], which
    is cheaper than a table lookup). *)
let request_key (r : request) : string option =
  match r with
  | Compile _ | Lint _ | Opt _ | Dse _ | Fuzz _ ->
      Some (Json.to_string (request_to_json r))
  | List_kernels | Stats | Ping | Shutdown -> None

(* ------------------------------------------------------------------ *)
(* Wire framing                                                       *)
(* ------------------------------------------------------------------ *)

(** Upper bound on a single frame body (64 MiB): a corrupt length
    prefix must not make the server allocate unbounded memory. *)
let max_frame_bytes = 64 * 1024 * 1024

let encode_frame (f : frame) : string =
  let body = frame_to_string f in
  let n = String.length body in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string body 0 b 4 n;
  Bytes.to_string b

(** Split as many complete frames as possible off the head of [buf];
    returns the decoded frames (or per-frame decode errors) and the
    unconsumed tail.  [Error] on an oversized or negative length
    prefix (the connection should be dropped). *)
let decode_frames (buf : string) :
    ((frame, string) result list * string, string) result =
  let n = String.length buf in
  let rec go at acc =
    if at + 4 > n then Ok (List.rev acc, String.sub buf at (n - at))
    else
      let len =
        (Char.code buf.[at] lsl 24)
        lor (Char.code buf.[at + 1] lsl 16)
        lor (Char.code buf.[at + 2] lsl 8)
        lor Char.code buf.[at + 3]
      in
      if len < 0 || len > max_frame_bytes then
        Error (Printf.sprintf "bad frame length %d" len)
      else if at + 4 + len > n then
        Ok (List.rev acc, String.sub buf at (n - at))
      else
        let body = String.sub buf (at + 4) len in
        go (at + 4 + len) (frame_of_string body :: acc)
  in
  go 0 []

(* Blocking single-frame IO over a file descriptor (client side and
   tests; the server uses the incremental {!decode_frames}). *)

let write_frame (fd : Unix.file_descr) (f : frame) : unit =
  let s = encode_frame f in
  let b = Bytes.of_string s in
  let rec go at =
    if at < Bytes.length b then
      match Unix.write fd b at (Bytes.length b - at) with
      | n -> go (at + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go at
  in
  go 0

let read_exactly (fd : Unix.file_descr) (n : int) : (Bytes.t, string) result =
  let b = Bytes.create n in
  let rec go at =
    if at >= n then Ok b
    else
      match Unix.read fd b at (n - at) with
      | 0 -> Error "connection closed"
      | k -> go (at + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go at
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

let read_frame (fd : Unix.file_descr) : (frame, string) result =
  let* hdr = read_exactly fd 4 in
  let len =
    (Char.code (Bytes.get hdr 0) lsl 24)
    lor (Char.code (Bytes.get hdr 1) lsl 16)
    lor (Char.code (Bytes.get hdr 2) lsl 8)
    lor Char.code (Bytes.get hdr 3)
  in
  if len < 0 || len > max_frame_bytes then
    Error (Printf.sprintf "bad frame length %d" len)
  else
    let* body = read_exactly fd len in
    frame_of_string (Bytes.to_string body)
