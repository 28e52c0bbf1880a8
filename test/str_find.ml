(** Tiny substring-search helper shared by the test suites. *)

(** Index of the first occurrence of [sub] in [s].
    @raise Not_found when absent. *)
let find (s : string) (sub : string) : int =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

let contains s sub = try ignore (find s sub); true with Not_found -> false

(** Count non-overlapping occurrences. *)
let count s sub =
  let m = String.length sub in
  if m = 0 then 0
  else
    let rec go i acc =
      match try Some (find (String.sub s i (String.length s - i)) sub) with Not_found -> None with
      | Some j -> go (i + j + m) (acc + 1)
      | None -> acc
    in
    go 0 0

(** [s] with the first occurrence of [sub] replaced by [by].
    @raise Not_found when absent. *)
let replace_first (s : string) (sub : string) (by : string) : string =
  let i = find s sub and m = String.length sub in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (String.length s - i - m)

(** [s] without its last [n] bytes. *)
let drop_last (n : int) (s : string) : string =
  String.sub s 0 (String.length s - n)

(** [json] with the scalar value of the first ["key": ...] replaced by
    the text [v] (the old value runs up to the next [,] or [}]). *)
let set_first_value (json : string) (key : string) (v : string) : string =
  let k = Printf.sprintf "\"%s\": " key in
  let start = find json k + String.length k in
  let stop = ref start in
  while json.[!stop] <> ',' && json.[!stop] <> '}' do incr stop done;
  String.sub json 0 start ^ v
  ^ String.sub json !stop (String.length json - !stop)
