(** Batch-level pass traces: per-job, per-pass records assembled from
    {!Support.Tracing} events, emitted as versioned JSON through
    {!Support.Json} plus an aggregate summary table. *)

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

val schema_version : int

val of_event :
  job:string ->
  kernel:string ->
  flow:string ->
  cached:bool ->
  Support.Tracing.event ->
  record

(** The record's JSON fields, in canonical schema order. *)
val record_fields : record -> (string * Support.Json.t) list

(** The whole trace on one line, newline-terminated. *)
val to_json : tool:string -> record list -> string

val write_file : tool:string -> string -> record list -> unit

(** Decode a parsed trace: version {!schema_version}, a string
    ["tool"], and a non-empty ["records"] list whose objects carry
    exactly the record keys, each of its type. *)
val of_json : Support.Json.t -> (record list, string) result

(** [Support.Json.parse], then {!of_json}. *)
val validate : string -> (unit, string) result

(** Per-(stage, pass) aggregate over the records that ran in a batch:
    run count, total/mean time, net IR delta.  Cached records are left
    out of every column and counted on one footer line. *)
val summary_table : record list -> string
