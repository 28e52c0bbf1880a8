(** The one JSON layer: every JSON producer in the tree builds a {!t}
    and prints it with {!to_string}, and every validator decodes a
    {!parse}d value with the field readers below.  Object fields keep
    insertion order; printing is deterministic; parsing never raises. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Deterministic single-line rendering: [", "] between items, [": "]
    after keys, strings escaped, floats in their shortest round-trip
    form. *)
val to_string : t -> string

(** Parse one JSON document; [Error] carries a byte offset and reason.
    Trailing non-whitespace is an error, and so is nesting arrays and
    objects deeper than {!max_depth}.  A [\u] surrogate pair decodes
    to one 4-byte UTF-8 sequence; a lone surrogate is an error. *)
val parse : string -> (t, string) result

(** Deepest array/object nesting {!parse} accepts (512). *)
val max_depth : int

(** [member k v] is field [k] of object [v], if any. *)
val member : string -> t -> t option

val to_str : t -> string option
val to_int : t -> int option

(** Accepts both [Int] and [Float]. *)
val to_float : t -> float option

val to_bool : t -> bool option
val to_list : t -> t list option

(** [Option.bind (member k v)] over the matching accessor. *)
val str_member : string -> t -> string option

val int_member : string -> t -> int option
val float_member : string -> t -> float option
val bool_member : string -> t -> bool option
val list_member : string -> t -> t list option

(** [option f o] is [Null] for [None], [f x] for [Some x]. *)
val option : ('a -> t) -> 'a option -> t

(** {1 Decoding}

    Field readers for decoders: each names the key in its [Error]. *)

(** [opt_field what conv k v]: field [k] of object [v] through [conv];
    [Ok None] when absent or [null], and
    [Error "field 'k' must be <what>"] when [conv] rejects it. *)
val opt_field :
  string -> (t -> 'a option) -> string -> t -> ('a option, string) result

(** {!opt_field} for a string. *)
val get_opt_str : string -> t -> (string option, string) result

(** The required readers: {!opt_field} at one type, except that an
    absent or [null] field is [Error "missing field 'k'"]. *)
val get_str : string -> t -> (string, string) result

val get_int : string -> t -> (int, string) result

(** Accepts both [Int] and [Float]. *)
val get_float : string -> t -> (float, string) result

val get_bool : string -> t -> (bool, string) result
val get_list : string -> t -> (t list, string) result

(** [Error] naming the first key of the object outside [known]; also
    [Error] when the value is not an object. *)
val only_keys : string list -> t -> (unit, string) result

(** Decode every element with [f]; the first [Error] wins. *)
val decode_list :
  (t -> ('a, string) result) -> t list -> ('a list, string) result
