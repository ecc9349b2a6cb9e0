(* End-to-end integration tests across all libraries: the full
   train-then-classify workflows a user of the library would run. *)

open Test_util

let rat = Rat.of_ints

(* Molecule-style scenario: entities are "molecules" connected to
   "atoms" via HasAtom; a molecule is active iff it contains an atom
   bonded to a heavy atom. Planted CQ[2] labeling; generation must
   recover a separating statistic; classification must generalize to a
   fresh evaluation database with the same pattern. *)
let molecule_db ~tag ~actives ~inactives =
  let mol i = sym (Printf.sprintf "%smol%d" tag i) in
  let atom i j = sym (Printf.sprintf "%sa%d_%d" tag i j) in
  let facts = ref [] in
  let add f = facts := f :: !facts in
  for i = 0 to actives - 1 do
    add ("HasAtom", [ mol i; atom i 0 ]);
    add ("Bond", [ atom i 0; atom i 1 ]);
    add ("Heavy", [ atom i 1 ])
  done;
  for i = actives to actives + inactives - 1 do
    add ("HasAtom", [ mol i; atom i 0 ]);
    add ("Bond", [ atom i 0; atom i 1 ])
  done;
  let db = Db.of_list !facts in
  let db = ref db in
  for i = 0 to actives + inactives - 1 do
    db := Db.add_entity (mol i) !db
  done;
  (!db, List.init actives mol, List.init inactives (fun i -> mol (actives + i)))

let test_molecules_end_to_end () =
  let db, act, inact = molecule_db ~tag:"t" ~actives:3 ~inactives:2 in
  let t =
    Labeling.training db
      (Labeling.of_list
         (List.map (fun m -> (m, Labeling.Pos)) act
         @ List.map (fun m -> (m, Labeling.Neg)) inact))
  in
  let lang = Language.Cq_atoms { m = 3; p = None } in
  check bool_c "separable" true (Cqfeat.separable lang t);
  match Cqfeat.generate lang t with
  | None -> Alcotest.fail "generation"
  | Some (stat, c) ->
      check int_c "train errors" 0 (Statistic.errors stat c t);
      (* fresh evaluation molecules *)
      let eval_db, eact, einact = molecule_db ~tag:"e" ~actives:2 ~inactives:2 in
      let lab = Statistic.induced_labeling stat c eval_db in
      List.iter
        (fun m ->
          check bool_c "active classified +" true
            (Labeling.label_equal Labeling.Pos (Labeling.get m lab)))
        eact;
      List.iter
        (fun m ->
          check bool_c "inactive classified -" true
            (Labeling.label_equal Labeling.Neg (Labeling.get m lab)))
        einact

(* The same scenario via Algorithm 1 (GHW(1)), never materializing. *)
let test_molecules_alg1 () =
  let db, act, inact = molecule_db ~tag:"t" ~actives:2 ~inactives:2 in
  let t =
    Labeling.training db
      (Labeling.of_list
         (List.map (fun m -> (m, Labeling.Pos)) act
         @ List.map (fun m -> (m, Labeling.Neg)) inact))
  in
  check bool_c "GHW(1)-separable" true (Cqfeat.separable (Language.Ghw 1) t);
  let eval_db, eact, einact = molecule_db ~tag:"e" ~actives:1 ~inactives:1 in
  let lab = Cqfeat.classify (Language.Ghw 1) t eval_db in
  List.iter
    (fun m ->
      check bool_c "+ classified" true
        (Labeling.label_equal Labeling.Pos (Labeling.get m lab)))
    eact;
  List.iter
    (fun m ->
      check bool_c "- classified" true
        (Labeling.label_equal Labeling.Neg (Labeling.get m lab)))
    einact

(* Noisy planted labels: Algorithm 2 recovers the planted labeling. *)
let test_noise_recovery () =
  (* two ->_1 classes: starts of long paths vs starts of short paths,
     several copies of each so majority voting can undo one flip *)
  let base = Families.two_path_gadget 3 in
  let t = Families.copies base 3 in
  (* 6 entities: 3 positive (long), 3 negative (short) *)
  let noisy = Planted.flip_labels ~seed:11 ~count:1 t in
  let relab, d = Ghw_sep.apx_relabel ~k:1 noisy in
  check int_c "one disagreement with noisy" 1 d;
  check int_c "recovers clean labels" 0
    (Labeling.disagreement relab t.Labeling.labeling);
  check bool_c "apx separable at 1/6" true
    (Cqfeat.apx_separable ~eps:(rat 1 6) (Language.Ghw 1) noisy);
  check bool_c "not exactly separable" false
    (Cqfeat.separable (Language.Ghw 1) noisy)

(* Text format in, decisions out: the CLI pipeline in library form. *)
let test_textfmt_pipeline () =
  let source =
    "E(a,b)\nE(b,c)\nE(d,e)\n+a\n-d\n" in
  let t = Textfmt.training_of_document (Textfmt.parse_string source) in
  check bool_c "separable" true
    (Cqfeat.separable (Language.Cq_atoms { m = 2; p = None }) t);
  let eval_doc = Textfmt.parse_string "E(u,v)\nE(v,w)\n?u\n" in
  let lab =
    Cqfeat.classify (Language.Cq_atoms { m = 2; p = None }) t eval_doc.Textfmt.db
  in
  check bool_c "2-path start is positive" true
    (Labeling.label_equal Labeling.Pos (Labeling.get (sym "u") lab))

(* Cross-language agreement on a batch of random instances: all
   deciders agree with the semantic inclusion order. *)
let prop_language_lattice =
  QCheck.Test.make ~name:"deciders respect the language lattice" ~count:15
    (labeled_spec_arb ~max_nodes:3 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      let cq1 = Cqfeat.separable (Language.Cq_atoms { m = 1; p = None }) t in
      let cq2 = Cqfeat.separable (Language.Cq_atoms { m = 2; p = None }) t in
      let g1 = Cqfeat.separable (Language.Ghw 1) t in
      let g2 = Cqfeat.separable (Language.Ghw 2) t in
      let cq = Cqfeat.separable Language.Cq_all t in
      let fo = Cqfeat.separable Language.Fo t in
      ((not cq1) || cq2)
      && ((not cq2) || cq)  (* CQ[2] features are CQs *)
      && ((not g1) || g2)   (* GHW(1) ⊆ GHW(2) *)
      && ((not g2) || cq)   (* GHW(2) ⊆ CQ *)
      && ((not cq) || fo)   (* CQ-indist. refines FO-indist. *)
      && ((not cq1) || g1)  (* one atom has ghw <= 1 *))

(* Unraveling-generated GHW features evaluate like the game on a fresh
   database (Prop 5.2 through the whole stack). *)
let test_unravel_transfers () =
  let t = Families.two_path_gadget 2 in
  match Cqfeat.generate ~ghw_depth:3 (Language.Ghw 1) t with
  | None -> Alcotest.fail "separable"
  | Some (stat, _) ->
      let eval_db = Families.path 4 in
      List.iter
        (fun q ->
          List.iter
            (fun f ->
              let by_hom = Cq.selects q eval_db f in
              let by_game =
                Cover_game.holds1 ~k:1 (Cq.canonical q, Cq.free q) (eval_db, f)
              in
              check bool_c "hom = game on feature" by_hom by_game)
            (Db.entities eval_db))
        stat

(* Ternary relations through the whole pipeline: enumeration, products,
   the cover game and the LP all handle higher arities generically. *)
let test_ternary_schema () =
  let t = sym "t" in
  let mk tag flagged =
    let e = sym tag in
    let a = sym (tag ^ "_a") and b = sym (tag ^ "_b") in
    let facts = [ ("Triple", [ e; a; b ]) ] in
    let facts = if flagged then ("Flag", [ a ]) :: facts else facts in
    (e, facts)
  in
  ignore t;
  let db, labeled =
    List.fold_left
      (fun (db, labeled) ((e, facts), l) ->
        let db =
          List.fold_left (fun d (r, args) -> Db.add (Fact.make_l r args) d)
            db facts
        in
        (Db.add_entity e db, (e, l) :: labeled))
      (Db.empty, [])
      [
        (mk "p1" true, Labeling.Pos);
        (mk "p2" true, Labeling.Pos);
        (mk "n1" false, Labeling.Neg);
        (mk "n2" false, Labeling.Neg);
      ]
  in
  let tr = Labeling.training db (Labeling.of_list labeled) in
  check bool_c "CQ[2]-separable over ternary" true
    (Cqfeat.separable (Language.Cq_atoms { m = 2; p = None }) tr);
  check bool_c "GHW(1)-separable over ternary" true
    (Cqfeat.separable (Language.Ghw 1) tr);
  check bool_c "CQ-separable over ternary" true
    (Cqfeat.separable Language.Cq_all tr);
  match Cqfeat.generate (Language.Cq_atoms { m = 2; p = None }) tr with
  | Some (stat, c) -> check int_c "errors" 0 (Statistic.errors stat c tr)
  | None -> Alcotest.fail "generation over ternary schema"

(* The class-DAG export has one node per class and only valid edges. *)
let test_dot_export () =
  let tr = Families.example_62 () in
  let ch = Ghw_sep.chain ~k:1 tr in
  let dot = Preorder_chain.to_dot ch in
  let count_sub sub s =
    let n = String.length s and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub s i m = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check int_c "three class nodes" 3 (count_sub "label=" dot);
  check bool_c "valid digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph")

(* Saved models survive a full train/save/load/apply cycle across
   databases. *)
let test_model_lifecycle () =
  let train = Families.two_path_gadget 2 in
  match Cqfeat.generate (Language.Cq_atoms { m = 2; p = None }) train with
  | None -> Alcotest.fail "separable"
  | Some (stat, c) ->
      let file = Filename.temp_file "cqfeat" ".model" in
      Model_io.save file (Model_io.make stat c);
      let m = Model_io.load file in
      Sys.remove file;
      let eval = Families.two_path_gadget 2 in
      let predicted = Model_io.apply m eval.Labeling.db in
      check int_c "lifecycle labels agree" 0
        (Labeling.disagreement predicted eval.Labeling.labeling)

(* cqsep classify retries a fuel-exhausted attempt. Each attempt runs
   the plain solver under the runner, so exhaustion reaches
   Guard.retrying and the next attempt gets 4x the fuel (100, 400,
   1600, 6400); 1600 is enough for the Example 6.2 database. *)
let run_cqsep args =
  let exe = "../bin/cqsep.exe" in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "cqsep was signalled"

let test_classify_retry () =
  let args =
    [
      "classify"; "../data/example62.db"; "../data/example62_eval.db";
      "--fuel"; "100";
    ]
  in
  check
    Alcotest.(pair int string)
    "--retry 3 escalates fuel until the run succeeds" (0, "+d\n-e\n")
    (run_cqsep (args @ [ "--retry"; "3" ]));
  check int_c "without --retry fuel 100 is exhausted (exit 3)" 3
    (fst (run_cqsep args))

(* Sep[*] through the CLI: Example 6.2 needs two CQ features. *)
let test_mindim () =
  check
    Alcotest.(pair int string)
    "cqsep mindim -l cq" (0, "minimum CQ dimension: 2\n")
    (run_cqsep [ "mindim"; "-l"; "cq"; "../data/example62.db" ])

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "molecules CQ[m]" `Quick test_molecules_end_to_end;
          Alcotest.test_case "molecules Alg1" `Quick test_molecules_alg1;
          Alcotest.test_case "noise recovery" `Quick test_noise_recovery;
          Alcotest.test_case "textfmt pipeline" `Quick test_textfmt_pipeline;
          Alcotest.test_case "unravel transfers" `Quick test_unravel_transfers;
          qcheck prop_language_lattice;
          Alcotest.test_case "ternary schema" `Quick test_ternary_schema;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "model lifecycle" `Quick test_model_lifecycle;
          Alcotest.test_case "cqsep classify --retry" `Quick
            test_classify_retry;
          Alcotest.test_case "cqsep mindim" `Quick test_mindim;
        ] );
    ]
