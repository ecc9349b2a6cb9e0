(* The typed pass end-to-end: build the mention graph from the
   tf_fixtures cmts and check that every typed rule fires (and stays
   quiet) exactly where the fixtures say. The load-bearing case is
   cross-module resolution: a non-ticking solver loop whose helper
   merely shares a name with a ticking one must be caught by R1', and
   a loop that ticks through another module's helper must not be. *)

let check = Alcotest.check
let keys_c = Alcotest.(list (pair string string))

let fixture_dir = "typed_fixtures"

let all_ml =
  [ "tf_cross_helper.ml"; "tf_cross_loop.ml"; "tf_cross_loop_suppressed.ml";
    "tf_cross_tick.ml"; "tf_scc.ml"; "tf_r6_random.ml"; "tf_r6_clock.ml";
    "tf_r6_floatfold.ml"; "tf_r6_tbl.ml"; "tf_r6_suppressed.ml"; "tf_r7_closure.ml";
    "tf_r7_ok.ml"; "tf_r7_suppressed.ml"; "tf_drift.ml";
    "tf_numeric_drift.ml" ]

let all_mli =
  [ "tf_r6_random.mli"; "tf_r6_clock.mli"; "tf_r6_floatfold.mli"; "tf_r6_tbl.mli";
    "tf_drift.mli"; "tf_numeric_drift.mli" ]

let load ~lib_name ~ml ~mli =
  Lint_driver.load_dir ~root:"." ~rel_dir:fixture_dir ~lib_name ~solver:true
    ~ml ~mli

let sources =
  lazy
    (match load ~lib_name:"tf_fixtures" ~ml:all_ml ~mli:all_mli with
    | Ok srcs -> srcs
    | Error msg -> Alcotest.fail msg)

let graph =
  lazy
    (Callgraph.build
       (List.map
          (fun (s : Typed_rules.source) -> (s.Typed_rules.s_mod, s.s_impl))
          (Lazy.force sources)))

let typed_findings =
  lazy (Typed_rules.run (Lazy.force graph) (Lazy.force sources))

let fixture f = Filename.concat fixture_dir f

let findings_for file =
  List.filter
    (fun (f : Lint_finding.t) -> f.file = fixture file)
    (Lazy.force typed_findings)

let rule_keys findings =
  List.sort compare
    (List.map
       (fun (f : Lint_finding.t) ->
         (Lint_finding.rule_to_string f.rule, f.key))
       findings)

let load_src name =
  match Lint_source.load (fixture name) with
  | Ok src -> src
  | Error msg -> Alcotest.failf "fixture %s: %s" name msg

(* Apply the file's own suppression directives, the way the driver
   does, and return (surviving keys, suppressed count). *)
let after_suppression name =
  let survivors, n = Lint_source.apply (load_src name) (findings_for name) in
  (rule_keys survivors, n)

let loop_node ?(graph = graph) m =
  let g = Lazy.force graph in
  match
    List.find_opt
      (fun (n : Callgraph.node) ->
        n.modname = m
        && match n.kind with Callgraph.Loop _ -> true | _ -> false)
      (Callgraph.nodes g)
  with
  | Some n -> n
  | None -> Alcotest.failf "no loop node in %s" m

let def_id name =
  match Callgraph.find_global (Lazy.force graph) name with
  | Some id -> id
  | None -> Alcotest.failf "no definition named %s in the graph" name

(* --- loading ---------------------------------------------------------- *)

let test_cmts_load () =
  check Alcotest.int "every fixture module loads" (List.length all_ml)
    (List.length (Lazy.force sources))

let test_missing_cmt_is_an_error () =
  check Alcotest.bool "a fixture dir without its objs dir is an Error" true
    (Result.is_error
       (load ~lib_name:"no_such_lib" ~ml:[ "tf_scc.ml" ] ~mli:[]));
  check Alcotest.bool "read_impl on a missing file is an Error" true
    (Result.is_error (Lint_cmt.read_impl (fixture "absent.cmt")));
  (* The whole driver: a lib/ source that was never compiled. *)
  let root = Filename.temp_file "cqlint_root" "" in
  Sys.remove root;
  let lib = Filename.concat (Filename.concat root "lib") "fresh" in
  List.iter
    (fun d -> Sys.mkdir d 0o755)
    [ root; Filename.concat root "lib"; lib ];
  let write name text =
    let oc = open_out (Filename.concat lib name) in
    output_string oc text;
    close_out oc
  in
  write "dune" "(library (name fresh))\n";
  write "fresh.ml" "let x = 1\n";
  write "fresh.mli" "val x : int\n";
  let result = Lint_driver.run (Lint_driver.default_config ~root) in
  List.iter
    (fun f -> Sys.remove (Filename.concat lib f))
    [ "dune"; "fresh.ml"; "fresh.mli" ];
  List.iter Sys.rmdir [ lib; Filename.concat root "lib"; root ];
  match result with
  | Ok _ -> Alcotest.fail "linting an uncompiled lib/ source must fail"
  | Error msg ->
      check Alcotest.string "names the file and the build step"
        "lib/fresh/fresh.ml: no readable .cmt/.cmti annotation under _build \
         (library fresh); run `dune build @lib/all` first"
        msg

(* --- graph shape ------------------------------------------------------ *)

let test_cross_module_resolution () =
  let g = Lazy.force graph in
  let loop = loop_node "Tf_cross_loop" in
  check Alcotest.bool
    "the shadowed `step` mention resolves to Tf_cross_helper.step" true
    (Callgraph.reaches g ~target:"Tf_cross_helper.step" loop.Callgraph.id);
  check Alcotest.bool "and that path never reaches Budget.tick" false
    (Callgraph.reaches g ~target:"Budget.tick" loop.Callgraph.id);
  let ticking = loop_node "Tf_cross_tick" in
  check Alcotest.bool "the Ldot-ticking loop reaches Budget.tick" true
    (Callgraph.reaches g ~target:"Budget.tick" ticking.Callgraph.id)

(* The caller's module is walked before its helper's: the mention must
   still resolve to the helper's definition, not to an external name
   with no body, or the tick behind it is lost. *)
let test_forward_reference () =
  let graph =
    lazy
      (match
         load ~lib_name:"tf_fixtures"
           ~ml:[ "tf_cross_tick.ml"; "tf_cross_helper.ml" ]
           ~mli:[]
       with
      | Ok srcs ->
          (* descending names: Tf_cross_tick before Tf_cross_helper *)
          Callgraph.build
            (List.sort
               (fun (a, _) (b, _) -> String.compare b a)
               (List.map
                  (fun (s : Typed_rules.source) ->
                    (s.Typed_rules.s_mod, s.s_impl))
                  srcs))
      | Error msg -> Alcotest.fail msg)
  in
  check Alcotest.bool "the loop reaches Budget.tick through the helper" true
    (Callgraph.reaches (Lazy.force graph) ~target:"Budget.tick"
       (loop_node ~graph "Tf_cross_tick").Callgraph.id)

let test_scc_detection () =
  let g = Lazy.force graph in
  check Alcotest.bool "mutual recursion is cyclic (ping)" true
    (Callgraph.cyclic g (def_id "Tf_scc.ping"));
  check Alcotest.bool "mutual recursion is cyclic (pong)" true
    (Callgraph.cyclic g (def_id "Tf_scc.pong"));
  check Alcotest.bool "direct recursion is cyclic (down)" true
    (Callgraph.cyclic g (def_id "Tf_scc.down"));
  check Alcotest.bool "a straight-line helper is not" false
    (Callgraph.cyclic g (def_id "Tf_cross_helper.step"))

(* --- R1' -------------------------------------------------------------- *)

let test_r1_regression_lock () =
  (* The shadowed [step] resolves to the non-ticking helper. *)
  check keys_c "R1' resolves it and flags the loop"
    [ ("R1", "while@drain") ]
    (rule_keys (findings_for "tf_cross_loop.ml"))

let test_r1_cross_module_tick_clean () =
  (* The loop ticks through [Tf_cross_helper]: R1' follows the call. *)
  check keys_c "R1' follows the cross-module call" []
    (rule_keys (findings_for "tf_cross_tick.ml"))

let test_r1_mutual_recursion () =
  check keys_c "non-ticking mutual recursion flagged once per binding"
    [ ("R1", "rec:ping"); ("R1", "rec:pong") ]
    (rule_keys (findings_for "tf_scc.ml"))

let test_r1_suppression () =
  check
    Alcotest.(pair keys_c int)
    "a reasoned directive silences the typed finding" ([], 1)
    (after_suppression "tf_cross_loop_suppressed.ml")

(* --- R6 --------------------------------------------------------------- *)

let test_r6_random_reachable () =
  check keys_c "Random.int behind a private helper, from the export"
    [ ("R6", "det:Random.int@pick") ]
    (rule_keys (findings_for "tf_r6_random.ml"))

let test_r6_clock_exempt () =
  check keys_c "Budget.Clock is the sanctioned time source" []
    (rule_keys (findings_for "tf_r6_clock.ml"))

let test_r6_float_fold () =
  (* [record] writes the unregistered top-level [tbl], so R9 fires
     alongside R6 — the same fixture doubles as an R9 positive. *)
  check keys_c "float accumulation over Hashtbl.fold, from the export"
    [ ("R6", "det:Hashtbl.fold@total"); ("R9", "effect:record") ]
    (rule_keys (findings_for "tf_r6_floatfold.ml"))

let test_r6_functor_instances () =
  (* [Ids] is written to by nothing the export reaches, so no R9 rides
     along here. *)
  check keys_c "Elem.Tbl.fold and a local instance's iter, judged by their declaring unit"
    [ ("R6", "det:Elem.Tbl.fold@first_key"); ("R6", "det:Ids.iter@listed") ]
    (rule_keys (findings_for "tf_r6_tbl.ml"))

let test_r6_suppression () =
  check
    Alcotest.(pair keys_c int)
    "a reasoned directive silences R6" ([], 1)
    (after_suppression "tf_r6_suppressed.ml")

(* --- R7 --------------------------------------------------------------- *)

let test_r7_closure_caught () =
  check keys_c "closure and Seq results across the isolate boundary"
    [ ("R7", "marshal:smuggle_closure"); ("R7", "marshal:smuggle_seq") ]
    (rule_keys (findings_for "tf_r7_closure.ml"))

let test_r7_first_order_clean () =
  check keys_c "first-order results marshal fine" []
    (rule_keys (findings_for "tf_r7_ok.ml"))

let test_r7_suppression () =
  check
    Alcotest.(pair keys_c int)
    "a reasoned directive silences R7" ([], 1)
    (after_suppression "tf_r7_suppressed.ml")

(* --- R8 --------------------------------------------------------------- *)

let test_r8_drift () =
  check keys_c "drifted _b twins flagged, the well-formed pair is not"
    [ ("R8", "drift:decide_b"); ("R8", "drift:rank_b") ]
    (rule_keys (findings_for "tf_drift.mli"))

let test_r8_numeric_drift () =
  check keys_c "numeric spine: refine_b/scale_b drifted, solve_b clean"
    [ ("R8", "drift:refine_b"); ("R8", "drift:scale_b") ]
    (rule_keys (findings_for "tf_numeric_drift.mli"));
  let survivors, n = after_suppression "tf_numeric_drift.mli" in
  check keys_c "the reasoned directive eats only scale_b"
    [ ("R8", "drift:refine_b") ]
    survivors;
  check Alcotest.int "one suppression" 1 n

let test_r8_suppression () =
  let survivors, n = after_suppression "tf_drift.mli" in
  check keys_c "only the unsuppressed drift survives"
    [ ("R8", "drift:decide_b") ]
    survivors;
  check Alcotest.int "the directive ate exactly one finding" 1 n

let () =
  Alcotest.run "callgraph"
    [
      ( "loading",
        [
          Alcotest.test_case "fixture cmts load" `Quick test_cmts_load;
          Alcotest.test_case "missing cmt is a driver error" `Quick
            test_missing_cmt_is_an_error;
        ] );
      ( "graph",
        [
          Alcotest.test_case "cross-module resolution" `Quick
            test_cross_module_resolution;
          Alcotest.test_case "forward reference" `Quick test_forward_reference;
          Alcotest.test_case "scc detection" `Quick test_scc_detection;
        ] );
      ( "r1'",
        [
          Alcotest.test_case "regression lock" `Quick test_r1_regression_lock;
          Alcotest.test_case "cross-module tick clean" `Quick
            test_r1_cross_module_tick_clean;
          Alcotest.test_case "mutual recursion" `Quick
            test_r1_mutual_recursion;
          Alcotest.test_case "suppression" `Quick test_r1_suppression;
        ] );
      ( "r6",
        [
          Alcotest.test_case "random reachable" `Quick
            test_r6_random_reachable;
          Alcotest.test_case "clock exempt" `Quick test_r6_clock_exempt;
          Alcotest.test_case "float fold" `Quick test_r6_float_fold;
          Alcotest.test_case "functor instances" `Quick test_r6_functor_instances;
          Alcotest.test_case "suppression" `Quick test_r6_suppression;
        ] );
      ( "r7",
        [
          Alcotest.test_case "closure caught" `Quick test_r7_closure_caught;
          Alcotest.test_case "first-order clean" `Quick
            test_r7_first_order_clean;
          Alcotest.test_case "suppression" `Quick test_r7_suppression;
        ] );
      ( "r8",
        [
          Alcotest.test_case "drift" `Quick test_r8_drift;
          Alcotest.test_case "numeric drift" `Quick test_r8_numeric_drift;
          Alcotest.test_case "suppression" `Quick test_r8_suppression;
        ] );
    ]
