(* Golden taint/protocol tests over compiled tf_fixtures cmts: the
   uncertified float-to-verdict path, the Certify-sanitized path, SCC
   propagation, journal-before-ack domination, handle release — plus a
   regression lock on the real Nsep: its entry points must stay
   certified-clean, and the fixture proving that deleting the
   Certify.hyperplane call is caught is tf_taint_bypass. *)

let check = Alcotest.check
let keys_c = Alcotest.(list (pair string string))
let bool_c = Alcotest.bool

let fixture_dir = "typed_fixtures"

let all_ml =
  [
    "tf_taint_leak.ml"; "tf_taint_certified.ml"; "tf_taint_scc.ml";
    "tf_taint_bypass.ml"; "tf_r13_ack.ml"; "tf_r14_leak.ml";
  ]

let load ~rel_dir ~lib_name ~ml =
  match
    Lint_driver.load_dir ~root:"." ~rel_dir ~lib_name ~solver:true ~ml ~mli:[]
  with
  | Ok srcs -> srcs
  | Error msg -> Alcotest.fail msg

let impls srcs =
  List.map
    (fun (s : Typed_rules.source) -> (s.Typed_rules.s_mod, s.s_impl))
    srcs

let sources =
  lazy (load ~rel_dir:fixture_dir ~lib_name:"tf_fixtures" ~ml:all_ml)

let graph = lazy (Callgraph.build (impls (Lazy.force sources)))

let taint =
  lazy (Taint.analyze (Lazy.force graph) (impls (Lazy.force sources)))

let everywhere _ = true

let rule_keys ~file findings =
  List.sort compare
    (List.filter_map
       (fun (f : Lint_finding.t) ->
         if f.file = Filename.concat fixture_dir file then
           Some (Lint_finding.rule_to_string f.rule, f.key)
         else None)
       findings)

let r12 =
  lazy
    (Protocol_rules.r12_float_taint ~sink_scope:everywhere
       (Lazy.force taint) (Lazy.force graph) (Lazy.force sources))

let summary name =
  let g = Lazy.force graph in
  match Callgraph.find_global g name with
  | Some id -> Taint.return_taint (Lazy.force taint) id
  | None -> Alcotest.failf "no definition named %s in the graph" name

let test_r12_leak () =
  check keys_c "float array packed into the verdict"
    [ ("R12", "taint:decide"); ("R12", "taint:fit") ]
    (rule_keys ~file:"tf_taint_leak.ml" (Lazy.force r12))

let test_r12_certified () =
  check keys_c "Certify.hyperplane sanitizes the candidate"
    [ ("R12", "taint:fit") ]
    (rule_keys ~file:"tf_taint_certified.ml" (Lazy.force r12));
  check bool_c "decide is clean" true
    (summary "Tf_taint_certified.decide" = None);
  check bool_c "decide still touches the float tier (certified row)" true
    (let g = Lazy.force graph in
     match Callgraph.find_global g "Tf_taint_certified.decide" with
     | Some id -> Taint.touches_float (Lazy.force taint) id
     | None -> false)

let test_r12_scc () =
  check keys_c "taint propagates around the poll/wait cycle"
    [ ("R12", "taint:poll"); ("R12", "taint:report"); ("R12", "taint:wait") ]
    (rule_keys ~file:"tf_taint_scc.ml" (Lazy.force r12))

let test_r12_bypass_caught () =
  (* The acceptance criterion: Nsep's numeric path minus its
     Certify.hyperplane call must be flagged. *)
  let keys = rule_keys ~file:"tf_taint_bypass.ml" (Lazy.force r12) in
  check bool_c "decide flagged" true
    (List.mem ("R12", "taint:decide") keys);
  check bool_c "numeric_attempt flagged" true
    (List.mem ("R12", "taint:numeric_attempt") keys)

let test_r13 () =
  let findings =
    Protocol_rules.r13_journal ~in_scope:everywhere
      ~ack_funs:
        [ "Tf_r13_ack.ack_bad"; "Tf_r13_ack.ack_good"; "Tf_r13_ack.reply_early" ]
      (Lazy.force taint) (Lazy.force graph) (Lazy.force sources)
  in
  check keys_c "mutate-before-append, one-path journal, early Ok"
    [
      ("R13", "journal:ji_state@ack_bad");
      ("R13", "journal:ji_state@ack_branchy");
      ("R13", "journal:ok@reply_early");
    ]
    (rule_keys ~file:"tf_r13_ack.ml" findings)

let test_r14 () =
  let findings =
    Protocol_rules.r14_release ~in_scope:everywhere (Lazy.force taint)
      (Lazy.force graph) (Lazy.force sources)
  in
  check keys_c "only the one-branch close leaks"
    [ ("R14", "leak:openfile@leak") ]
    (rule_keys ~file:"tf_r14_leak.ml" findings)

(* --- regression lock on the real numeric tier ------------------------- *)

let real_sources =
  lazy
    (load ~rel_dir:"../lib/linsep" ~lib_name:"linsep"
       ~ml:[ "certify.ml"; "halfspace.ml"; "linsep.ml"; "nsep.ml" ]
    @ load ~rel_dir:"../lib/lp" ~lib_name:"lp"
        ~ml:[ "cg.ml"; "fsimplex.ml"; "simplex.ml" ])

let real_graph = lazy (Callgraph.build (impls (Lazy.force real_sources)))

let real_taint =
  lazy
    (Taint.analyze (Lazy.force real_graph) (impls (Lazy.force real_sources)))

let real_summary name =
  let g = Lazy.force real_graph in
  match Callgraph.find_global g name with
  | Some id -> Taint.return_taint (Lazy.force real_taint) id
  | None -> Alcotest.failf "no definition named %s in the graph" name

let test_nsep_lock () =
  List.iter
    (fun name ->
      match real_summary name with
      | None -> ()
      | Some why -> Alcotest.failf "%s became float-tainted: %s" name why)
    [
      "Nsep.decide";
      "Nsep.separable";
      "Nsep.is_separable";
      "Linsep.min_errors_exact";
    ];
  (* ... while the float tier underneath really is a taint source, so
     the lock is not vacuous. *)
  check bool_c "Cg.fit is float-tainted" true (real_summary "Cg.fit" <> None);
  List.iter
    (fun name ->
      check bool_c (name ^ " touches the float tier") true
        (match Callgraph.find_global (Lazy.force real_graph) name with
        | Some id -> Taint.touches_float (Lazy.force real_taint) id
        | None -> false))
    [ "Nsep.decide"; "Linsep.min_errors_exact" ]

let test_tables () =
  check bool_c "+. is a source" true (Taint.source_head "+.");
  check bool_c "Float.* is a source" true (Taint.source_head "Float.of_int");
  check bool_c "Rat.to_float is a source" true (Taint.source_head "Rat.to_float");
  check bool_c "Certify.hyperplane sanitizes" true
    (Taint.sanitizer_head "Certify.hyperplane");
  check bool_c "Rat.of_float sanitizes" true (Taint.sanitizer_head "Rat.of_float");
  check bool_c "Rat.of_float is not a source" false
    (Taint.source_head "Rat.of_float")

let () =
  Alcotest.run "taint"
    [
      ( "r12",
        [
          Alcotest.test_case "leak" `Quick test_r12_leak;
          Alcotest.test_case "certified" `Quick test_r12_certified;
          Alcotest.test_case "scc" `Quick test_r12_scc;
          Alcotest.test_case "bypass caught" `Quick test_r12_bypass_caught;
        ] );
      ( "r13",
        [ Alcotest.test_case "journal-before-ack" `Quick test_r13 ] );
      ( "r14",
        [ Alcotest.test_case "release-on-all-paths" `Quick test_r14 ] );
      ( "lock",
        [
          Alcotest.test_case "nsep stays certified" `Quick test_nsep_lock;
          Alcotest.test_case "name tables" `Quick test_tables;
        ] );
    ]
