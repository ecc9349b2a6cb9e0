(* Golden effect-signature tests: one fixture per lattice level, the
   mutual-recursion SCC join, registration attribution and the R9/R10
   rules — all over compiled tf_fixtures cmts, the same substrate the
   real lint run uses. *)

let check = Alcotest.check
let keys_c = Alcotest.(list (pair string string))

let load ml =
  match
    Lint_driver.load_dir ~root:"." ~rel_dir:"typed_fixtures"
      ~lib_name:"tf_fixtures" ~solver:true ~ml ~mli:[]
  with
  | Ok srcs -> srcs
  | Error msg -> Alcotest.fail msg

let impls srcs =
  List.map
    (fun (s : Typed_rules.source) -> (s.Typed_rules.s_mod, s.s_impl))
    srcs

let sources =
  lazy
    (load
       [ "tf_eff_pure.ml"; "tf_eff_reads.ml"; "tf_eff_writes.ml";
         "tf_eff_scc.ml"; "tf_r10_escape.ml" ])

let graph = lazy (Callgraph.build (impls (Lazy.force sources)))

let effects =
  lazy (Effects.analyze (Lazy.force graph) (impls (Lazy.force sources)))

let typed_findings =
  lazy (Typed_rules.run (Lazy.force graph) (Lazy.force sources))

let findings_for ?(findings = typed_findings) rule file =
  List.sort compare
    (List.filter_map
       (fun (f : Lint_finding.t) ->
         if f.rule = rule && f.file = Filename.concat "typed_fixtures" file
         then Some (Lint_finding.rule_to_string f.rule, f.key)
         else None)
       (Lazy.force findings))

(* The level is the head of the rendered signature:
   "writes-global(...)" -> "writes-global". *)
let level_of name =
  let g = Lazy.force graph in
  match Callgraph.find_global g name with
  | None -> Alcotest.failf "no definition named %s in the graph" name
  | Some id ->
      let d =
        Effects.describe (Lazy.force effects)
          (Effects.signature (Lazy.force effects) id)
      in
      List.hd (String.split_on_char '(' d)

(* --- the lattice, one level per fixture -------------------------------- *)

let test_level_pure () =
  check Alcotest.string "add is pure" "pure" (level_of "Tf_eff_pure.add");
  check Alcotest.string "purity propagates through double" "pure"
    (level_of "Tf_eff_pure.double")

let test_level_reads () =
  check Alcotest.string
    "a registered-cache write stays at reads-cache level" "reads-cache"
    (level_of "Tf_eff_reads.lookup");
  check Alcotest.string "a bare registered read too" "reads-cache"
    (level_of "Tf_eff_reads.peek")

let test_level_writes () =
  check Alcotest.string "an unregistered write is writes-global"
    "writes-global"
    (level_of "Tf_eff_writes.record");
  check Alcotest.string "an unregistered read alone is only reads-cache"
    "reads-cache"
    (level_of "Tf_eff_writes.count")

let test_scc_join () =
  (* Only ping writes the counter, but pong is in the same SCC: the
     whole component joins to writes-global. *)
  check Alcotest.string "the writer" "writes-global"
    (level_of "Tf_eff_scc.ping");
  check Alcotest.string "its mutual-recursion partner" "writes-global"
    (level_of "Tf_eff_scc.pong")

(* --- registration ------------------------------------------------------- *)

let test_registration_attribution () =
  let regs =
    List.sort compare
      (List.filter_map
         (fun (s : Effects.site) ->
           Option.map (fun r -> (s.Effects.site_name, r)) s.site_registered)
         (Array.to_list (Effects.sites (Lazy.force effects))))
  in
  check keys_c "exactly the tf_eff.cache site is registered"
    [ ("Tf_eff_reads.cache", "tf_eff.cache") ]
    regs

(* Ident stamps are per compilation unit: [Bad_r5.hits] and
   [Bad_r5_registered.hits] carry the same one. Walking the registering
   module last used to credit Bad_r5's [incr hits] to the registered
   twin, and R9 went silent on [Bad_r5.lookup]. *)
let test_registration_across_modules () =
  let srcs = load [ "bad_r5.ml"; "bad_r5_registered.ml" ] in
  check
    Alcotest.(list string)
    "the registering module is walked last"
    [ "Bad_r5"; "Bad_r5_registered" ]
    (List.map (fun (s : Typed_rules.source) -> s.s_mod) srcs);
  let findings =
    lazy (Typed_rules.run (Callgraph.build (impls srcs)) srcs)
  in
  check keys_c "the unregistered writer is still reported"
    [ ("R9", "effect:lookup") ]
    (findings_for ~findings Lint_finding.R9 "bad_r5.ml");
  check keys_c "the registered one is not" []
    (findings_for ~findings Lint_finding.R9 "bad_r5_registered.ml")

(* --- R9 and R10 finding keys ------------------------------------------- *)

let test_r9_findings () =
  check keys_c "the unregistered writer is the only R9 in its module"
    [ ("R9", "effect:record") ]
    (findings_for Lint_finding.R9 "tf_eff_writes.ml");
  check keys_c "registered-cache module is R9-clean" []
    (findings_for Lint_finding.R9 "tf_eff_reads.ml")

let test_r10_escape () =
  check keys_c "the captured Hashtbl is flagged, the thunk-local is not"
    [ ("R10", "escape:seen@tally") ]
    (findings_for Lint_finding.R10 "tf_r10_escape.ml")

let () =
  Alcotest.run "effects"
    [
      ( "lattice",
        [
          Alcotest.test_case "pure" `Quick test_level_pure;
          Alcotest.test_case "reads-cache" `Quick test_level_reads;
          Alcotest.test_case "writes-global" `Quick test_level_writes;
          Alcotest.test_case "scc join" `Quick test_scc_join;
        ] );
      ( "registration",
        [
          Alcotest.test_case "attribution" `Quick
            test_registration_attribution;
          Alcotest.test_case "across modules" `Quick
            test_registration_across_modules;
        ] );
      ( "rules",
        [
          Alcotest.test_case "r9" `Quick test_r9_findings;
          Alcotest.test_case "r10" `Quick test_r10_escape;
        ] );
    ]
