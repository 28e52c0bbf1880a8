(** Minimal JSON: a value type, a deterministic printer, a
    recursive-descent parser and result-returning field readers.

    This is the tree's one JSON layer: every producer ({!Diag}, the
    parsafe verdict, the pass trace, the DSE frontier, the serve
    protocol, the bench files) builds a {!t} and prints it here, and
    every validator decodes a parsed {!t} rather than searching text.
    Object fields keep their insertion order, printing is deterministic
    (no hash-order leaks), floats round-trip via shortest forms, and
    parse failures are [Error] strings with a byte offset, never
    exceptions. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let escape (s : string) =
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

let float_to_string (f : float) =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string (v : t) : string =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

(** Deepest array/object nesting {!parse} accepts.  The parser
    recurses once per level, so an unbounded depth would let one
    hostile document stall (or overflow) the caller. *)
let max_depth = 512

let parse (src : string) : (t, string) result =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.sub src !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub src !pos 4 in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if not (String.for_all is_hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* a \u escape is one UTF-16 code unit: a high surrogate must be
     followed by an escaped low one, and the pair names one scalar *)
  let parse_code_point () =
    let hi = parse_hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
    else if hi >= 0xD800 && hi <= 0xDBFF then begin
      if not (!pos + 2 <= n && src.[!pos] = '\\' && src.[!pos + 1] = 'u')
      then fail "lone high surrogate";
      pos := !pos + 2;
      let lo = parse_hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else hi
  in
  let utf8_add buf code =
    (* encode a Unicode scalar value as UTF-8 *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = src.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = src.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'u' ->
              utf8_add buf (parse_code_point ());
              go ()
          | _ -> fail "bad escape")
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char src.[!pos] do
      advance ()
    done;
    let text = String.sub src start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number '%s'" text))
  in
  (* step past the '[' or '{' that opens a level below [depth] *)
  let nested depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting depth exceeds %d" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        nested depth;
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        nested depth;
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member (k : string) = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None

let str_member k v = Option.bind (member k v) to_str
let int_member k v = Option.bind (member k v) to_int
let float_member k v = Option.bind (member k v) to_float
let bool_member k v = Option.bind (member k v) to_bool
let list_member k v = Option.bind (member k v) to_list

(* ------------------------------------------------------------------ *)
(* Building and decoding                                              *)
(* ------------------------------------------------------------------ *)

let option f = function None -> Null | Some x -> f x

let opt_field what conv k v =
  match member k v with
  | None | Some Null -> Ok None
  | Some x -> (
      match conv x with
      | Some y -> Ok (Some y)
      | None -> Error (Printf.sprintf "field '%s' must be %s" k what))

let field what conv k v =
  match opt_field what conv k v with
  | Ok (Some y) -> Ok y
  | Ok None -> Error (Printf.sprintf "missing field '%s'" k)
  | Error e -> Error e

let get_str = field "a string" to_str
let get_int = field "an integer" to_int
let get_float = field "a number" to_float
let get_bool = field "a boolean" to_bool
let get_list = field "a list" to_list
let get_opt_str = opt_field "a string" to_str

let only_keys known = function
  | Obj fields -> (
      match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
      | None -> Ok ()
      | Some (k, _) -> Error (Printf.sprintf "unknown key '%s'" k))
  | _ -> Error "expected an object"

let decode_list f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error e -> Error e)
  in
  go [] xs
