(** Versioned [dse.json] frontier export + schema validator.

    The file is deterministic for a given cache state — wall-clock
    never appears, so a [--jobs 4] export is byte-identical to a
    [--jobs 1] one. *)

val schema_version : int

(** Serialize an outcome on one newline-terminated line.  [tool] is
    the driver's version string. *)
val to_json : tool:string -> Search.outcome -> string

val write_file : tool:string -> string -> Search.outcome -> unit

(** [Support.Json.parse], then a schema decode: version
    {!schema_version}, exactly the header keys and exactly the
    frontier-point keys (["sched"] optional), each of its type, and a
    non-empty frontier. *)
val validate : string -> (unit, string) result

(** {!validate} on a file's contents. *)
val validate_file : string -> (unit, string) result
