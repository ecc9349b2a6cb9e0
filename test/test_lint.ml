(* The linter linted: every rule must fire exactly where the fixtures
   say, reasoned suppressions must silence exactly their line (and the
   next), and reasonless directives must be rejected as R0 findings
   rather than silently eating real ones. The Parsetree rules run on
   the sources in lint_fixtures; R1' and R9 need type information and
   run on the compiled typed_fixtures. *)

let bool_c = Alcotest.bool
let check = Alcotest.check

let load name =
  match Lint_source.load (Filename.concat "lint_fixtures" name) with
  | Ok src -> src
  | Error msg -> Alcotest.failf "fixture %s: %s" name msg

let lint name =
  Lint_driver.lint_source ~rules:Lint_finding.all_rules (load name)

let rule_keys findings =
  List.map
    (fun (f : Lint_finding.t) -> (Lint_finding.rule_to_string f.rule, f.key))
    findings

let keys_c = Alcotest.(list (pair string string))

(* The R1'/R9 fixtures, loaded as solver or non-solver modules. *)
let typed_findings ~solver =
  match
    Lint_driver.load_dir ~root:"." ~rel_dir:"typed_fixtures"
      ~lib_name:"tf_fixtures" ~solver
      ~ml:
        [ "bad_r1.ml"; "bad_r1_suppressed.ml"; "bad_r1_ticking.ml";
          "bad_r5.ml"; "bad_r5_registered.ml"; "bad_r5_suppressed.ml" ]
      ~mli:[]
  with
  | Error msg -> Alcotest.fail msg
  | Ok srcs ->
      let g =
        Callgraph.build
          (List.map
             (fun (s : Typed_rules.source) -> (s.Typed_rules.s_mod, s.s_impl))
             srcs)
      in
      Typed_rules.run g srcs

let solver_findings = lazy (typed_findings ~solver:true)

(* A typed fixture's findings after its own suppression directives,
   the way the driver applies them. *)
let typed ?(findings = solver_findings) name =
  let path = Filename.concat "typed_fixtures" name in
  let src =
    match Lint_source.load path with
    | Ok src -> src
    | Error msg -> Alcotest.failf "fixture %s: %s" name msg
  in
  rule_keys
    (fst
       (Lint_source.apply src
          (List.filter
             (fun (f : Lint_finding.t) -> f.file = path)
             (Lazy.force findings))))

let test_r1_fires () =
  check keys_c "unticked loop and recursion"
    [ ("R1", "while@search"); ("R1", "rec:explore") ]
    (typed "bad_r1.ml")

let test_r1_suppressed () =
  check keys_c "reasoned directives silence R1" []
    (typed "bad_r1_suppressed.ml")

let test_r1_ticking_clean () =
  check keys_c "a direct tick and a tick through a helper both count" []
    (typed "bad_r1_ticking.ml")

let test_r1_off_outside_solver_dirs () =
  check keys_c "R1 is scoped to solver directories" []
    (typed ~findings:(lazy (typed_findings ~solver:false)) "bad_r1.ml")

let test_r2_fires () =
  check keys_c "unconvertible raise and unguarded _b entry"
    [ ("R2", "raise:Sys_error"); ("R2", "entry:solve_b") ]
    (rule_keys (lint "bad_r2.ml"))

let test_r2_suppressed () =
  check keys_c "reasoned directives silence R2" []
    (rule_keys (lint "bad_r2_suppressed.ml"))

let test_r3_fires () =
  check keys_c "hash, polymorphic compare, domain Hashtbl key"
    [ ("R3", "hash"); ("R3", "polyeq:Rat"); ("R3", "hashtbl-key:Rat") ]
    (rule_keys (lint "bad_r3.ml"))

let test_r3_suppressed () =
  check keys_c "reasoned directives silence R3" []
    (rule_keys (lint "bad_r3_suppressed.ml"))

let test_r4_fires () =
  let r4 ~ml ~mli =
    rule_keys (Lint_rules.r4_missing_mli ~dir:"lib/x" ~ml ~mli)
  in
  check keys_c "an .ml without an .mli" [ ("R4", "mli:lone") ]
    (r4 ~ml:[ "lone.ml"; "paired.ml" ] ~mli:[ "paired.mli" ]);
  check keys_c "an .ml with its .mli is silent" []
    (r4 ~ml:[ "paired.ml" ] ~mli:[ "paired.mli" ])

(* R9 catches what the retired Parsetree R5 caught in its fixtures:
   the unregistered state is reported at the entry point that writes
   it. *)
let test_r9_fires () =
  check keys_c "the writer of unregistered top-level state (locals exempt)"
    [ ("R9", "effect:lookup") ]
    (typed "bad_r5.ml")

let test_r9_suppressed () =
  check keys_c "a reasoned directive silences R9" []
    (typed "bad_r5_suppressed.ml")

let test_r9_registered_clean () =
  check keys_c "state mentioned in Runtime_state.register counts" []
    (typed "bad_r5_registered.ml")

let test_r9_off_outside_solver_dirs () =
  check keys_c "R9 is scoped to solver directories" []
    (typed ~findings:(lazy (typed_findings ~solver:false)) "bad_r5.ml")

let test_reasonless_rejected () =
  let keys = rule_keys (lint "reasonless.ml") in
  check bool_c "R0 reported for the reasonless directive" true
    (List.mem ("R0", "directive#4") keys);
  check bool_c "the R3 finding is NOT suppressed" true
    (List.mem ("R3", "hash") keys)

let test_retired_rule_rejected () =
  match
    Lint_source.parse_string ~path:"retired.ml" ~intf:false
      "(* cqlint: allow R5 \xe2\x80\x94 registered elsewhere *)\nlet x = 1\n"
  with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok src ->
      let _, bad = Lint_source.suppressions src in
      check keys_c "allow R5 names a rule that no longer exists"
        [ ("R0", "directive#1") ]
        (rule_keys bad);
      check
        Alcotest.(list string)
        "the message lists the rules that do"
        [
          "unknown rule \"R5\" (expected one of R1, R2, R3, R4, R6, R7, R8, \
           R9, R10, R11, R12, R13, R14)";
        ]
        (List.map (fun (f : Lint_finding.t) -> f.message) bad)

(* Baseline plumbing: mandatory reasons, and (rule, file, key) matching
   that survives unrelated line drift. *)
let test_baseline_reasons () =
  (match Lint_driver.parse_baseline "R1 lib/cq/x.ml rec:go \xe2\x80\x94 ok" with
  | Ok [ e ] ->
      check Alcotest.string "key" "rec:go" e.Lint_driver.b_key;
      check Alcotest.string "reason" "ok" e.Lint_driver.b_reason
  | Ok _ -> Alcotest.fail "expected one entry"
  | Error msg -> Alcotest.failf "reasoned line must parse: %s" msg);
  (match Lint_driver.parse_baseline "R1 lib/cq/x.ml rec:go" with
  | Ok _ -> Alcotest.fail "reasonless baseline line must be rejected"
  | Error _ -> ());
  match Lint_driver.parse_baseline "# comment\n\nR3 a.ml hash -- legacy\n" with
  | Ok [ _ ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "comments/blank lines must be skipped"

(* The dogfooding invariant the @lint alias enforces: the library tree
   itself is clean. Run from the repo checkout when available (the test
   binary may run in a sandbox that only has the fixtures). *)
let test_lib_clean () =
  let root = "../../.." in
  if Sys.file_exists (Filename.concat root "lib") then
    match Lint_driver.run (Lint_driver.default_config ~root) with
    | Error msg -> Alcotest.failf "driver error: %s" msg
    | Ok report ->
        check Alcotest.(list string) "no findings in lib/" []
          (List.map Lint_finding.to_text report.Lint_driver.findings)

(* A baseline entry whose file was deleted is a different defect from a
   fixed finding in a live file: it must land in
   [missing_file_baseline] (deletable), never in [stale_baseline]
   (fixable). Regression for the old behavior that lumped both under
   "stale". *)
let test_missing_file_baseline () =
  let root = "../../.." in
  if Sys.file_exists (Filename.concat root "lib") then begin
    let tmp = Filename.temp_file "cqlint_baseline" ".txt" in
    let oc = open_out tmp in
    output_string oc
      "R1 lib/core/deleted_file.ml while@gone \xe2\x80\x94 file was removed\n\
       R1 lib/core/dim_sep.ml rec:never_existed \xe2\x80\x94 fixed finding\n";
    close_out oc;
    let config =
      { (Lint_driver.default_config ~root) with baseline = Some tmp }
    in
    let result = Lint_driver.run config in
    Sys.remove tmp;
    match result with
    | Error msg -> Alcotest.failf "driver error: %s" msg
    | Ok report ->
        check
          Alcotest.(list string)
          "deleted-file entry is reported as missing-file"
          [ "R1 lib/core/deleted_file.ml while@gone" ]
          report.Lint_driver.missing_file_baseline;
        check
          Alcotest.(list string)
          "live-file entry stays plain stale"
          [ "R1 lib/core/dim_sep.ml rec:never_existed" ]
          report.Lint_driver.stale_baseline
  end

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 fires" `Quick test_r1_fires;
          Alcotest.test_case "R1 suppressed" `Quick test_r1_suppressed;
          Alcotest.test_case "R1 ticking clean" `Quick test_r1_ticking_clean;
          Alcotest.test_case "R1 solver-scoped" `Quick
            test_r1_off_outside_solver_dirs;
          Alcotest.test_case "R2 fires" `Quick test_r2_fires;
          Alcotest.test_case "R2 suppressed" `Quick test_r2_suppressed;
          Alcotest.test_case "R3 fires" `Quick test_r3_fires;
          Alcotest.test_case "R3 suppressed" `Quick test_r3_suppressed;
          Alcotest.test_case "R4 fires" `Quick test_r4_fires;
          Alcotest.test_case "R9 fires" `Quick test_r9_fires;
          Alcotest.test_case "R9 suppressed" `Quick test_r9_suppressed;
          Alcotest.test_case "R9 registered clean" `Quick
            test_r9_registered_clean;
          Alcotest.test_case "R9 solver-scoped" `Quick
            test_r9_off_outside_solver_dirs;
          Alcotest.test_case "reasonless rejected" `Quick
            test_reasonless_rejected;
          Alcotest.test_case "retired rule rejected" `Quick
            test_retired_rule_rejected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "baseline reasons" `Quick test_baseline_reasons;
          Alcotest.test_case "missing-file baseline entries" `Quick
            test_missing_file_baseline;
          Alcotest.test_case "lib/ is clean" `Quick test_lib_clean;
        ] );
    ]
