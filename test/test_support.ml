(** Unit tests for the support library. *)

let test_namegen_basic () =
  let g = Support.Namegen.create () in
  Alcotest.(check string) "first use of a base keeps it" "x" (Support.Namegen.fresh g "x");
  let second = Support.Namegen.fresh g "x" in
  Alcotest.(check bool) "second use is distinct" true (second <> "x");
  Alcotest.(check bool) "second is registered" true (Support.Namegen.is_used g second)

let test_namegen_reserve () =
  let g = Support.Namegen.create () in
  Support.Namegen.reserve g "t0";
  let n = Support.Namegen.fresh g "t0" in
  Alcotest.(check bool) "reserved name is avoided" true (n <> "t0")

let test_namegen_no_collisions () =
  let g = Support.Namegen.create () in
  let names = List.init 100 (fun _ -> Support.Namegen.fresh g "v") in
  let uniq = List.sort_uniq compare names in
  Alcotest.(check int) "100 fresh names are distinct" 100 (List.length uniq)

let test_union_find () =
  let u = Support.Union_find.create 8 in
  Alcotest.(check bool) "initially disjoint" false (Support.Union_find.same u 0 1);
  ignore (Support.Union_find.union u 0 1);
  ignore (Support.Union_find.union u 2 3);
  Alcotest.(check bool) "0~1" true (Support.Union_find.same u 0 1);
  Alcotest.(check bool) "2~3" true (Support.Union_find.same u 2 3);
  Alcotest.(check bool) "0!~2" false (Support.Union_find.same u 0 2);
  ignore (Support.Union_find.union u 1 2);
  Alcotest.(check bool) "transitive merge" true (Support.Union_find.same u 0 3)

let test_union_find_idempotent () =
  let u = Support.Union_find.create 4 in
  let r1 = Support.Union_find.union u 0 1 in
  let r2 = Support.Union_find.union u 0 1 in
  Alcotest.(check int) "re-union returns same root" r1 r2

let test_table_render () =
  let t = Support.Table.create ~aligns:[ Support.Table.Left; Support.Table.Right ] [ "name"; "n" ] in
  Support.Table.add_row t [ "a"; "1" ];
  Support.Table.add_row t [ "bb"; "22" ];
  let s = Support.Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.contains s 'n');
  (* all lines share the same width *)
  let lines = String.split_on_char '\n' s in
  let widths = List.map String.length (List.filter (fun l -> l <> "") lines) in
  let w0 = List.hd widths in
  Alcotest.(check bool) "rectangular output" true
    (List.for_all (fun w -> w = w0) widths)

let test_table_missing_cells () =
  let t = Support.Table.create [ "a"; "b"; "c" ] in
  Support.Table.add_row t [ "1" ];
  let s = Support.Table.render t in
  Alcotest.(check bool) "short rows are padded" true (String.length s > 0)

let test_err_fail_raises () =
  Alcotest.check_raises "fail raises Compile_error"
    (Support.Err.Compile_error (Support.Err.make ~pass:"x" "nope 42"))
    (fun () -> Support.Err.fail ~pass:"x" "nope %d" 42)

let test_err_guard () =
  Support.Err.guard ~pass:"g" true "fine";
  Alcotest.(check bool) "guard true passes" true true;
  match Support.Err.guard ~pass:"g" false "broken" with
  | () -> Alcotest.fail "guard false should raise"
  | exception Support.Err.Compile_error e ->
      Alcotest.(check string) "pass recorded" "g" e.Support.Err.pass

(* --- Json ------------------------------------------------------- *)

module Json = Support.Json

let is_error = function Ok _ -> false | Error _ -> true

let test_json_depth_cap () =
  (match Json.parse (String.make 1_000_000 '[') with
  | Ok _ -> Alcotest.fail "1M nested arrays accepted"
  | Error e ->
      Alcotest.(check bool) "error names the depth" true
        (Str_find.contains e "depth"));
  let nest d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "max_depth levels parse" false
    (is_error (Json.parse (nest Json.max_depth)));
  Alcotest.(check bool) "one more is refused" true
    (is_error (Json.parse (nest (Json.max_depth + 1))));
  Alcotest.(check bool) "objects count too" true
    (is_error
       (Json.parse
          (String.concat ""
             (List.init (Json.max_depth + 1) (fun _ -> "{\"a\": "))
          ^ "1"
          ^ String.make (Json.max_depth + 1) '}')))

let test_json_surrogates () =
  Alcotest.(check bool) "pair decodes to 4-byte UTF-8" true
    (Json.parse {|"\ud83d\ude00"|} = Ok (Json.Str "\xF0\x9F\x98\x80"));
  Alcotest.(check bool) "BMP escape stays 3 bytes" true
    (Json.parse {|"\u20ac"|} = Ok (Json.Str "\xE2\x82\xAC"));
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) name true (is_error (Json.parse src)))
    [
      ("lone high surrogate", {|"\ud83d"|});
      ("high surrogate then text", {|"\ud83dx"|});
      ("high surrogate then BMP escape", {|"\ud83d\u0041"|});
      ("lone low surrogate", {|"\ude00"|});
      ("non-hex digits", {|"\u+123"|});
    ]

let prop_json_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: any byte string round-trips"
    QCheck.string (fun s ->
      Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s))

let suite =
  [
    Alcotest.test_case "namegen basic" `Quick test_namegen_basic;
    Alcotest.test_case "namegen reserve" `Quick test_namegen_reserve;
    Alcotest.test_case "namegen no collisions" `Quick test_namegen_no_collisions;
    Alcotest.test_case "union-find basic" `Quick test_union_find;
    Alcotest.test_case "union-find idempotent" `Quick test_union_find_idempotent;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table missing cells" `Quick test_table_missing_cells;
    Alcotest.test_case "err fail raises" `Quick test_err_fail_raises;
    Alcotest.test_case "err guard" `Quick test_err_guard;
    Alcotest.test_case "json depth cap" `Quick test_json_depth_cap;
    Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogates;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
  ]
