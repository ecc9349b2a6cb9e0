(* The linter linted: every rule must fire exactly where the fixtures
   say, reasoned suppressions must silence exactly their line (and the
   next), and reasonless directives must be rejected as R0 findings
   rather than silently eating real ones. Every rule runs on the
   compiled typed_fixtures (an executable under typed_fixtures/exec);
   lint_fixtures holds directive-only sources. *)

let bool_c = Alcotest.bool
let check = Alcotest.check

let rule_keys findings =
  List.map
    (fun (f : Lint_finding.t) -> (Lint_finding.rule_to_string f.rule, f.key))
    findings

let keys_c = Alcotest.(list (pair string string))

(* Typed findings over a set of fixtures, loaded as solver or
   non-solver modules. *)
let typed_findings ~solver ml =
  match
    Lint_driver.load_dir ~root:"." ~rel_dir:"typed_fixtures"
      ~lib_name:"tf_fixtures" ~solver ~ml ~mli:[]
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

(* The R1'/R9 fixtures. *)
let budget_fixtures =
  [ "bad_r1.ml"; "bad_r1_suppressed.ml"; "bad_r1_ticking.ml"; "bad_r5.ml";
    "bad_r5_registered.ml"; "bad_r5_suppressed.ml" ]

let solver_findings = lazy (typed_findings ~solver:true budget_fixtures)

(* The R2/R3 fixtures, outside the solver dirs so only the per-unit
   rules can fire. *)
let unit_findings =
  lazy
    (typed_findings ~solver:false
       [ "bad_r2.ml"; "bad_r2_suppressed.ml"; "bad_r3.ml";
         "bad_r3_suppressed.ml"; "reasonless.ml"; "tf_r3_inferred.ml";
         "tf_r3_ok.ml" ])

let load path =
  match Lint_source.load path with
  | Ok src -> src
  | Error msg -> Alcotest.failf "fixture %s: %s" path msg

(* A typed fixture's findings after its own suppression directives,
   the way the driver applies them. *)
let typed ?(findings = solver_findings) name =
  let path = Filename.concat "typed_fixtures" name in
  rule_keys
    (fst
       (Lint_source.apply (load path)
          (List.filter
             (fun (f : Lint_finding.t) -> f.file = path)
             (Lazy.force findings))))

let unit_typed = typed ~findings:unit_findings

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
    (typed ~findings:(lazy (typed_findings ~solver:false budget_fixtures)) "bad_r1.ml")

let test_r2_fires () =
  check keys_c "unconvertible raise and unguarded _b entry"
    [ ("R2", "raise:Sys_error"); ("R2", "entry:solve_b") ]
    (unit_typed "bad_r2.ml")

let test_r2_suppressed () =
  check keys_c "reasoned directives silence R2" []
    (unit_typed "bad_r2_suppressed.ml")

let test_r3_fires () =
  check keys_c "hash, polymorphic compare, domain Hashtbl key"
    [ ("R3", "hash"); ("R3", "polyeq:Rat"); ("R3", "hashtbl-key:Rat") ]
    (unit_typed "bad_r3.ml")

let test_r3_suppressed () =
  check keys_c "reasoned directives silence R3" []
    (unit_typed "bad_r3_suppressed.ml")

(* The shapes an expression-head rule cannot see: the key, the
   operand and the hashed value are plain variables. *)
let test_r3_inferred () =
  check keys_c "inferred Elem.t list key, Rat.t option <>, hash at int list"
    [ ("R3", "hashtbl-key:Elem"); ("R3", "polyeq:Rat"); ("R3", "hash") ]
    (unit_typed "tf_r3_inferred.ml")

let test_r3_silent () =
  check keys_c "= on Elem.t and Hashtbl.hash on a string" []
    (unit_typed "tf_r3_ok.ml")

let test_r4_fires () =
  let r4 ~ml ~mli =
    rule_keys (Lint_driver.r4_missing_mli ~dir:"lib/x" ~ml ~mli)
  in
  check keys_c "an .ml without an .mli" [ ("R4", "mli:lone") ]
    (r4 ~ml:[ "lone.ml"; "paired.ml" ] ~mli:[ "paired.mli" ]);
  check keys_c "an .ml with its .mli is silent" []
    (r4 ~ml:[ "paired.ml" ] ~mli:[ "paired.mli" ])

(* Executables are compiled as dune__exe__<Module> under
   .<exe>.eobjs: the loader finds the unit, and R2/R3 judge it like a
   library unit. *)
let test_exec_loader () =
  let rel_dir = Filename.concat "typed_fixtures" "exec" in
  match
    Lint_cmt.load_exec_units ~root:"." ~rel_dir ~ml:[ "tf_exec.ml" ] ~mli:[]
  with
  | [ (u : Lint_cmt.unit_info) ] ->
      check
        Alcotest.(option string)
        "source path"
        (Some (Filename.concat rel_dir "tf_exec.ml"))
        u.u_ml;
      check bool_c "typed tree loaded" true (u.u_impl <> None);
      let execs =
        List.map
          (fun impl ->
            {
              Typed_rules.s_mod = u.u_module;
              s_file = Filename.concat rel_dir "tf_exec.ml";
              s_mli = None;
              s_solver = false;
              s_impl = impl;
              s_intf = None;
            })
          (Option.to_list u.u_impl)
      in
      check keys_c "R2 and R3 run on executables"
        [ ("R2", "raise:Sys_error"); ("R3", "polyeq:Rat") ]
        (rule_keys
           (List.sort Lint_finding.compare
              (Typed_rules.run ~execs (Callgraph.build []) [])))
  | units -> Alcotest.failf "expected one unit, got %d" (List.length units)

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
    (typed ~findings:(lazy (typed_findings ~solver:false budget_fixtures)) "bad_r5.ml")

let test_reasonless_rejected () =
  let keys = unit_typed "reasonless.ml" in
  check bool_c "R0 reported for the reasonless directive" true
    (List.mem ("R0", "directive#4") keys);
  check bool_c "the R3 finding is NOT suppressed" true
    (List.mem ("R3", "hash") keys)

let test_retired_rule_rejected () =
  let _, bad = Lint_source.suppressions (load "lint_fixtures/retired.ml") in
  check keys_c "allow R5 names a rule that no longer exists"
    [ ("R0", "directive#1") ]
    (rule_keys bad);
  check
    Alcotest.(list string)
    "the message lists the rules that do"
    [
      "unknown rule \"R5\" (expected one of R1, R2, R3, R4, R6, R7, R8, R9, \
       R10, R11, R12, R13, R14)";
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

(* Only the checkout is linted: dune's copies and implicit executable
   interfaces in the build tree are skipped, a hand-written interface
   that happens to open with the same comment is not. *)
let test_generated_skipped () =
  let file suffix text =
    let path = Filename.temp_file "cqlint_generated" suffix in
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    path
  in
  let cases =
    [
      ("copy", file ".ml" "# 1 \"test/linsep_ref.ml\"\nlet x = 1\n", true);
      ("implicit mli", file ".mli" "(* Auto-generated by Dune *)", true);
      ("written mli", file ".mli" "(* Auto-generated by Dune *)\nval x : int\n", false);
      ("plain ml", file ".ml" "let x = 1\n", false);
    ]
  in
  List.iter
    (fun (what, path, want) ->
      let got = Lint_driver.generated path in
      Sys.remove path;
      check Alcotest.bool what want got)
    cases

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
          Alcotest.test_case "R3 on inferred types" `Quick test_r3_inferred;
          Alcotest.test_case "R3 silent on Elem.t and strings" `Quick
            test_r3_silent;
          Alcotest.test_case "R4 fires" `Quick test_r4_fires;
          Alcotest.test_case "generated units skipped" `Quick test_generated_skipped;
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
          Alcotest.test_case "executable annotations" `Quick test_exec_loader;
          Alcotest.test_case "missing-file baseline entries" `Quick
            test_missing_file_baseline;
          Alcotest.test_case "lib/ is clean" `Quick test_lib_clean;
        ] );
    ]
