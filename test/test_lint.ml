(** Tests for the lint rule registry and the accumulating diagnostics
    engine: rule firing, JSON golden output, exit codes, -Werror, and
    the adaptor's complete-list strict mode. *)

module K = Workloads.Kernels
module Diag = Support.Diag

let parse m = Llvmir.Lparser.parse_module m

let dirs ?(ii = 1) () =
  { K.pipeline_ii = Some ii; unroll = None; strategy = K.Inner; partitions = [] }

let lint_gemm ?only ?(werror = false) ~ii () =
  Flow.lint_kernel ~directives:(dirs ~ii ()) ?only ~werror
    (Option.get (K.by_name "gemm"))

let has_rule r ds = List.exists (fun d -> d.Diag.rule = r) ds

(* --- HLS001: infeasible pipeline II ------------------------------- *)

let test_gemm_ii1_infeasible () =
  let ds = lint_gemm ~ii:1 () in
  Alcotest.(check bool) "HLS001 fires" true (has_rule "HLS001" ds);
  Alcotest.(check int) "exit code 1 (warnings)" 1 (Diag.exit_code ds);
  let d = List.find (fun d -> d.Diag.rule = "HLS001") ds in
  Alcotest.(check (option string)) "function" (Some "gemm") d.Diag.func;
  Alcotest.(check (option string)) "location" (Some "loop3.header")
    d.Diag.location;
  Alcotest.(check bool) "message names the recurrence" true
    (Str_find.contains d.Diag.message "register recurrence")

let test_gemm_ii4_clean () =
  let ds = lint_gemm ~ii:4 () in
  Alcotest.(check bool) "no HLS001 at II 4" false (has_rule "HLS001" ds);
  Alcotest.(check int) "exit code 0" 0 (Diag.exit_code ds)

(* --- JSON golden output ------------------------------------------- *)

let golden_json =
  "{\"diagnostics\": [{\"rule\": \"HLS001\", \"severity\": \"warning\", \
   \"function\": \"gemm\", \"location\": \"loop3.header\", \"message\": \
   \"pipeline II 1 is infeasible: register recurrence through %call needs \
   II >= 4\", \"hint\": \"request II >= 4 or break the recurrence\"}], \
   \"errors\": 0, \"warnings\": 1, \"notes\": 0}"

let test_json_golden () =
  let ds = lint_gemm ~ii:1 () in
  Alcotest.(check string) "stable JSON rendering" golden_json
    (Diag.to_json ds)

let test_diag_json_roundtrip () =
  let nasty =
    [
      "quote \" and backslash \\";
      "newline\n tab\t return\r";
      "controls \000\001\027\031 and del \127";
      "non-ASCII: caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
      "";
    ]
  in
  List.iter
    (fun text ->
      List.iter
        (fun d ->
          Alcotest.(check bool) "of_json (json d) = Ok d" true
            (Diag.of_json (Diag.json d) = Ok d);
          Alcotest.(check bool) "survives printing and parsing" true
            (Result.bind
               (Support.Json.parse (Support.Json.to_string (Diag.json d)))
               Diag.of_json
            = Ok d))
        [
          Diag.error ~rule:"HLS001" "%s" text;
          Diag.warning ~func:text ~location:text ~hint:text ~rule:text "%s"
            text;
          Diag.note ~location:text ~rule:"HLS002" "m";
        ])
    nasty;
  Alcotest.(check bool) "unknown severity rejected" true
    (Result.is_error
       (Result.bind
          (Support.Json.parse
             {|{"rule": "X", "severity": "fatal", "message": "m"}|})
          Diag.of_json))

(* --- -Werror and rule filtering ----------------------------------- *)

let test_werror () =
  let ds = lint_gemm ~ii:1 ~werror:true () in
  Alcotest.(check int) "warnings promoted to errors" 2 (Diag.exit_code ds);
  Alcotest.(check int) "no warnings left" 0 (Diag.warnings ds)

let test_rule_filter () =
  let ds = lint_gemm ~ii:1 ~only:[ "HLS007" ] () in
  Alcotest.(check bool) "filtered out HLS001" false (has_rule "HLS001" ds);
  let ds = lint_gemm ~ii:1 ~only:[ "HLS001" ] () in
  Alcotest.(check bool) "kept HLS001" true (has_rule "HLS001" ds)

(* --- HLS003: partition vs access pattern -------------------------- *)

let test_partition_conflict () =
  let d =
    {
      K.pipeline_ii = Some 4;
      unroll = None;
      strategy = K.Inner;
      partitions = [ ("A", "cyclic", 4, 1) ];
    }
  in
  let ds = Flow.lint_kernel ~directives:d (Option.get (K.by_name "gemm")) in
  (* inner loop iv does not move along dim 1 of A: every iteration
     lands in the same bank *)
  Alcotest.(check bool) "HLS003 fires" true (has_rule "HLS003" ds);
  let d2 =
    { d with K.partitions = [ ("A", "cyclic", 4, 2) ] }
  in
  let ds2 = Flow.lint_kernel ~directives:d2 (Option.get (K.by_name "gemm")) in
  Alcotest.(check bool) "stride-1 dim is conflict-free" false
    (has_rule "HLS003" ds2)

(* --- HLS004/HLS005/HLS006 on hand-written IR ---------------------- *)

let warty =
  {|define void @top([16 x float]* %out, float* %unused) {
entry:
  %tmp = alloca [16 x float]
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %tmp, i64 0, i64 0
  store float 1.0, float* %p0
  %q = getelementptr inbounds [16 x float], [16 x float]* %out, i64 0, i64 0
  store float 2.0, float* %q
  ret void
island:
  br label %island
}|}

let test_handwritten_rules () =
  let ds = Hls_backend.Lint.run ~top:"top" (parse warty) in
  Alcotest.(check bool) "dead store (HLS004)" true (has_rule "HLS004" ds);
  Alcotest.(check bool) "unused param (HLS005)" true (has_rule "HLS005" ds);
  Alcotest.(check bool) "unreachable block (HLS006)" true
    (has_rule "HLS006" ds);
  let d5 = List.find (fun d -> d.Diag.rule = "HLS005") ds in
  Alcotest.(check (option string)) "names the parameter" (Some "unused")
    d5.Diag.location

(* --- HLS000: broken IR -------------------------------------------- *)

let test_broken_ir () =
  let m =
    parse
      {|define i64 @f(i64 %x) {
entry:
  %y = add i64 %x, %z
  ret i64 %y
}|}
  in
  let ds = Hls_backend.Lint.run m in
  Alcotest.(check bool) "HLS000 fires" true (has_rule "HLS000" ds);
  Alcotest.(check int) "exit code 2 (errors)" 2 (Diag.exit_code ds)

(* --- HLS10x: compat issues re-reported as diagnostics ------------- *)

let test_compat_rules () =
  let m =
    parse
      {|define i64 @f(i64 %x) {
entry:
  %y = freeze i64 %x
  %z = add i64 %y, 1 !md{llvm.loop.unroll.count = 4}
  ret i64 %z
}|}
  in
  let ds = Hls_backend.Lint.run m in
  Alcotest.(check bool) "freeze (HLS104)" true (has_rule "HLS104" ds);
  Alcotest.(check bool) "loop metadata (HLS105)" true (has_rule "HLS105" ds);
  let d104 = List.find (fun d -> d.Diag.rule = "HLS104") ds in
  let d105 = List.find (fun d -> d.Diag.rule = "HLS105") ds in
  Alcotest.(check bool) "freeze is an error" true
    (d104.Diag.severity = Diag.Error);
  Alcotest.(check bool) "metadata only a warning" true
    (d105.Diag.severity = Diag.Warning)

(* --- adaptor strict mode reports the complete list ---------------- *)

let test_adaptor_complete_list () =
  let k = Option.get (K.by_name "gemm") in
  let m = k.K.build (dirs ~ii:1 ()) in
  (* without descriptor elimination the output keeps descriptors and
     opaque pointers: non-strict run accumulates them in the report *)
  let _, report, _ =
    Flow_util.frontend_exn
      ~pipeline:Adaptor.Pipeline.no_descriptor_elimination m
  in
  let n = List.length report.Adaptor.diagnostics in
  Alcotest.(check bool) "multiple diagnostics accumulated" true (n > 1);
  (* strict run raises with the same complete list, not just the head *)
  let strict_p =
    {
      Adaptor.Pipeline.no_descriptor_elimination with
      Adaptor.Pipeline.strict = true;
    }
  in
  match Flow.direct_ir_frontend ~pipeline:strict_p m with
  | Ok _ -> Alcotest.fail "strict adaptor should have failed"
  | Error ds ->
      Alcotest.(check int) "complete accumulated list" n (List.length ds);
      Alcotest.(check bool) "only error severities block" true
        (Diag.errors ds > 0)

(* --- HLS008/HLS009/HLS010: alias & effect rules ------------------- *)

(* %A is partitioned but also stored through a phi-selected pointer
   the alias oracle cannot attribute to a single array *)
let aliased_partition =
  {|define void @top([64 x float]* %A attrs(fpga.partition.factor = "4"), [64 x float]* %B, i1 %c) {
entry:
  br i1 %c, label %l, label %r
l:
  br label %j
r:
  br label %j
j:
  %ptr = phi [64 x float]* [ %A, %l ], [ %B, %r ]
  %pl = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 0
  %v = load float, float* %pl
  %ps = getelementptr inbounds [64 x float], [64 x float]* %ptr, i64 0, i64 1
  store float %v, float* %ps
  ret void
}|}

let test_aliased_partition () =
  let ds = Hls_backend.Lint.run ~top:"top" (parse aliased_partition) in
  Alcotest.(check bool) "HLS008 fires" true (has_rule "HLS008" ds);
  let d = List.find (fun d -> d.Diag.rule = "HLS008") ds in
  Alcotest.(check (option string)) "names the partitioned array" (Some "A")
    d.Diag.location;
  (* direct accesses only: the directive is fine *)
  let clean =
    parse
      {|define void @top([64 x float]* %A attrs(fpga.partition.factor = "4")) {
entry:
  %pl = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 0
  %v = load float, float* %pl
  %ps = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 1
  store float %v, float* %ps
  ret void
}|}
  in
  Alcotest.(check bool) "direct accesses, no HLS008" false
    (has_rule "HLS008" (Hls_backend.Lint.run ~top:"top" clean))

let shared_global =
  {|@acc = global i64 0
define void @bump_a(i64 %x) {
entry:
  %v = load i64, i64* @acc
  %w = add i64 %v, %x
  store i64 %w, i64* @acc
  ret void
}
define void @bump_b(i64 %x) {
entry:
  %v = load i64, i64* @acc
  %w = mul i64 %v, %x
  store i64 %w, i64* @acc
  ret void
}|}

let test_global_conflict () =
  let ds = Hls_backend.Lint.run (parse shared_global) in
  Alcotest.(check bool) "HLS009 fires" true (has_rule "HLS009" ds);
  let d = List.find (fun d -> d.Diag.rule = "HLS009") ds in
  Alcotest.(check bool) "message names both writers and the global" true
    (Str_find.contains d.Diag.message "@bump_a"
    && Str_find.contains d.Diag.message "@bump_b"
    && Str_find.contains d.Diag.message "@acc")

let unknown_callee =
  {|declare void @mystery(i64)
define void @helper(i64 %n) {
entry:
  ret void
}
define void @top(i64 %n) {
entry:
  call void @helper(i64 %n)
  call void @mystery(i64 %n)
  ret void
}|}

let test_unknown_callee () =
  let ds = Hls_backend.Lint.run ~top:"top" (parse unknown_callee) in
  let d10 = List.filter (fun d -> d.Diag.rule = "HLS010") ds in
  Alcotest.(check int) "exactly the undefined callee flagged" 1
    (List.length d10);
  Alcotest.(check bool) "message names @mystery" true
    (Str_find.contains (List.hd d10).Diag.message "@mystery")

let test_kernels_clean_on_new_rules () =
  let ds = lint_gemm ~ii:4 ~only:[ "HLS008"; "HLS009"; "HLS010" ] () in
  Alcotest.(check int) "gemm clean under the alias/effect rules" 0
    (Diag.exit_code ds)

(* --- diag engine unit checks -------------------------------------- *)

let test_diag_engine () =
  let w = Diag.warning ~rule:"HLS999" "w %d" 1 in
  let e = Diag.error ~rule:"HLS998" "e" in
  let n = Diag.note ~rule:"HLS997" "n" in
  let ds = [ w; e; n ] in
  Alcotest.(check int) "errors" 1 (Diag.errors ds);
  Alcotest.(check int) "warnings" 1 (Diag.warnings ds);
  Alcotest.(check int) "exit code" 2 (Diag.exit_code ds);
  (* sort puts the error first *)
  Alcotest.(check string) "sorted" "HLS998" (List.hd (Diag.sort ds)).Diag.rule;
  (* promote_warnings flips only the warning *)
  let p = Diag.promote_warnings ds in
  Alcotest.(check int) "promoted" 2 (Diag.errors p);
  Alcotest.(check int) "notes untouched" 1 (Diag.count Diag.Note p);
  (* render mentions every rule, summary counts *)
  let txt = Diag.render ds in
  Alcotest.(check bool) "render lists rules" true
    (Str_find.contains txt "HLS999" && Str_find.contains txt "HLS998");
  Alcotest.(check bool) "summary line" true
    (Str_find.contains txt "1 error(s), 1 warning(s), 1 note(s)");
  (* JSON escaping *)
  let tricky = Diag.warning ~rule:"X" "quote \" and\nnewline" in
  Alcotest.(check bool) "escaped" true
    (Str_find.contains
       (Support.Json.to_string (Diag.json tricky))
       "quote \\\" and\\nnewline")

let suite =
  [
    Alcotest.test_case "gemm II 1 infeasible" `Quick test_gemm_ii1_infeasible;
    Alcotest.test_case "gemm II 4 clean" `Quick test_gemm_ii4_clean;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "diag JSON round-trip" `Quick test_diag_json_roundtrip;
    Alcotest.test_case "werror" `Quick test_werror;
    Alcotest.test_case "rule filter" `Quick test_rule_filter;
    Alcotest.test_case "partition conflict" `Quick test_partition_conflict;
    Alcotest.test_case "handwritten rules" `Quick test_handwritten_rules;
    Alcotest.test_case "broken IR" `Quick test_broken_ir;
    Alcotest.test_case "compat rules" `Quick test_compat_rules;
    Alcotest.test_case "adaptor complete list" `Quick
      test_adaptor_complete_list;
    Alcotest.test_case "aliased partition (HLS008)" `Quick
      test_aliased_partition;
    Alcotest.test_case "global conflict (HLS009)" `Quick test_global_conflict;
    Alcotest.test_case "unknown callee (HLS010)" `Quick test_unknown_callee;
    Alcotest.test_case "kernels clean on new rules" `Quick
      test_kernels_clean_on_new_rules;
    Alcotest.test_case "diag engine" `Quick test_diag_engine;
  ]
