(* The linter linted: every rule must fire exactly where the fixtures
   say, reasoned suppressions must silence exactly their line (and the
   next), and reasonless directives must be rejected as R0 findings
   rather than silently eating real ones. *)

let bool_c = Alcotest.bool
let check = Alcotest.check

let load name =
  match Lint_source.load (Filename.concat "lint_fixtures" name) with
  | Ok src -> src
  | Error msg -> Alcotest.failf "fixture %s: %s" name msg

let lint ?(solver = true) name =
  Lint_driver.lint_source ~rules:Lint_finding.all_rules ~solver (load name)

let rule_keys findings =
  List.map
    (fun (f : Lint_finding.t) -> (Lint_finding.rule_to_string f.rule, f.key))
    findings

let keys_c = Alcotest.(list (pair string string))

let test_r1_fires () =
  check keys_c "unticked loop and recursion"
    [ ("R1", "while@search"); ("R1", "rec:explore") ]
    (rule_keys (lint "bad_r1.ml"))

let test_r1_suppressed () =
  check keys_c "reasoned directives silence R1" []
    (rule_keys (lint "bad_r1_suppressed.ml"))

let test_r1_ticking_clean () =
  check keys_c "direct tick and one-level closure both count" []
    (rule_keys (lint "bad_r1_ticking.ml"))

let test_r1_off_outside_solver_dirs () =
  check keys_c "R1 is scoped to solver directories" []
    (rule_keys (lint ~solver:false "bad_r1.ml"))

let test_r2_fires () =
  check keys_c "unconvertible raise and unguarded _b entry"
    [ ("R2", "raise:Sys_error"); ("R2", "entry:solve_b") ]
    (rule_keys (lint "bad_r2.ml"))

let test_r2_suppressed () =
  check keys_c "reasoned directives silence R2" []
    (rule_keys (lint "bad_r2_suppressed.ml"))

let test_r3_fires () =
  check keys_c "hash, polymorphic compare, domain Hashtbl key"
    [ ("R3", "hash"); ("R3", "polyeq:Rat"); ("R5", "state:cache");
      ("R3", "hashtbl-key:Rat") ]
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

let test_r5_fires () =
  check keys_c "unregistered top-level mutable state (locals exempt)"
    [ ("R5", "state:memo"); ("R5", "state:hits") ]
    (rule_keys (lint "bad_r5.ml"))

let test_r5_suppressed () =
  check keys_c "reasoned directives silence R5" []
    (rule_keys (lint "bad_r5_suppressed.ml"))

let test_r5_registered_clean () =
  check keys_c "Runtime_state.register mentioning the bindings counts" []
    (rule_keys (lint "bad_r5_registered.ml"))

let test_r5_off_outside_solver_dirs () =
  check keys_c "R5 is scoped to solver directories" []
    (rule_keys (lint ~solver:false "bad_r5.ml"))

let test_reasonless_rejected () =
  let keys = rule_keys (lint "reasonless.ml") in
  check bool_c "R0 reported for the reasonless directive" true
    (List.mem ("R0", "directive#4") keys);
  check bool_c "the R1 finding is NOT suppressed" true
    (List.mem ("R1", "rec:explore") keys)

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
          Alcotest.test_case "R5 fires" `Quick test_r5_fires;
          Alcotest.test_case "R5 suppressed" `Quick test_r5_suppressed;
          Alcotest.test_case "R5 registered clean" `Quick
            test_r5_registered_clean;
          Alcotest.test_case "R5 solver-scoped" `Quick
            test_r5_off_outside_solver_dirs;
          Alcotest.test_case "reasonless rejected" `Quick
            test_reasonless_rejected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "baseline reasons" `Quick test_baseline_reasons;
          Alcotest.test_case "missing-file baseline entries" `Quick
            test_missing_file_baseline;
          Alcotest.test_case "lib/ is clean" `Quick test_lib_clean;
        ] );
    ]
