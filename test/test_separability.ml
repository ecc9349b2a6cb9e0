(* Tests for the core separability machinery: Sections 4-7 of the
   paper. *)

open Test_util

let rat = Rat.of_ints
let cq_all = Language.Cq_all
let cqm m = Language.Cq_atoms { m; p = None }
let ghw k = Language.Ghw k

(* --- Section 4: bounded atoms ----------------------------------------- *)

let test_example62_atoms () =
  let t = Families.example_62 () in
  check bool_c "CQ[1]" true (Cqfeat.separable (cqm 1) t);
  match Cqfeat.generate (cqm 1) t with
  | Some (stat, c) ->
      check int_c "zero training errors" 0 (Statistic.errors stat c t);
      check bool_c "features within language" true
        (List.for_all (Language.member (cqm 1)) stat)
  | None -> Alcotest.fail "generation must succeed"

let prop_atoms_implies_cq =
  QCheck.Test.make ~name:"CQ[m]-separable implies CQ-separable" ~count:30
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      (not (Cqfeat.separable (cqm 2) t)) || Cqfeat.separable cq_all t)

let prop_atoms_monotone_in_m =
  QCheck.Test.make ~name:"CQ[1]-separable implies CQ[2]-separable" ~count:30
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      (not (Cqfeat.separable (cqm 1) t)) || Cqfeat.separable (cqm 2) t)

let prop_atoms_generation_round_trip =
  QCheck.Test.make ~name:"CQ[m] generation separates exactly" ~count:30
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      match Cqfeat.generate (cqm 2) t with
      | Some (stat, c) -> Statistic.errors stat c t = 0
      | None -> not (Cqfeat.separable (cqm 2) t))

let prop_cqmp_at_most_cqm =
  QCheck.Test.make ~name:"CQ[m,p] ⊆ CQ[m] for separability" ~count:30
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      let with_p = Language.Cq_atoms { m = 2; p = Some 1 } in
      (not (Cqfeat.separable with_p t)) || Cqfeat.separable (cqm 2) t)

(* --- Section 5: GHW(k) ------------------------------------------------- *)

(* Lemma 5.4 soundness: when the ->_k test says separable, the
   generated (depth-bounded) statistic separates — checked on
   instances small enough for the unraveling depth to stabilize. *)
let test_ghw_generate_two_paths () =
  let t = Families.two_path_gadget 3 in
  match Cqfeat.generate ~ghw_depth:3 (ghw 1) t with
  | Some (stat, c) ->
      check int_c "GHW(1) generation separates" 0 (Statistic.errors stat c t)
  | None -> Alcotest.fail "two-path gadget is GHW(1)-separable"

(* Completeness of the test: if the ->_k classes are inconsistent, no
   statistic from GHW(k) features (here: all enumerable CQ[3] features
   with ghw <= 1) can separate. *)
let prop_ghw_test_complete =
  QCheck.Test.make ~name:"GHW(1)-inseparable has no small ghw-1 statistic"
    ~count:20 (labeled_spec_arb ~max_nodes:3 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      QCheck.assume (not (Cqfeat.separable (ghw 1) t));
      let qs =
        Cq_enum.feature_queries ~schema:[ ("E", 2); ("U", 1) ] ~max_atoms:2 ()
      in
      let ghw1 = List.filter (fun q -> Cq_decomp.ghw_le q 1) qs in
      not (Statistic.separates ghw1 t))

(* And the converse inclusion: a separating ghw-1 statistic implies the
   test passes. *)
let prop_ghw_test_sound =
  QCheck.Test.make ~name:"small ghw-1 statistic implies GHW(1)-separable"
    ~count:20 (labeled_spec_arb ~max_nodes:3 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      let qs =
        Cq_enum.feature_queries ~schema:[ ("E", 2); ("U", 1) ] ~max_atoms:2 ()
      in
      let ghw1 = List.filter (fun q -> Cq_decomp.ghw_le q 1) qs in
      QCheck.assume (Statistic.separates ghw1 t);
      Cqfeat.separable (ghw 1) t)

let prop_ghw_monotone_in_k =
  QCheck.Test.make ~name:"GHW(1)-separable implies GHW(2)-separable"
    ~count:15 (labeled_spec_arb ~max_nodes:3 ~max_edges:3) (fun ls ->
      let t = training_of_labeled ls in
      (not (Cqfeat.separable (ghw 1) t)) || Cqfeat.separable (ghw 2) t)

let prop_ghw_implies_cq =
  QCheck.Test.make ~name:"GHW(k)-separable implies CQ-separable" ~count:20
    (labeled_spec_arb ~max_nodes:3 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      (not (Cqfeat.separable (ghw 1) t)) || Cqfeat.separable cq_all t)

(* Algorithm 1: self-classification reproduces the training labels on
   separable instances. *)
let prop_alg1_self_classification =
  QCheck.Test.make ~name:"Algorithm 1 self-classification is exact"
    ~count:20 (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      QCheck.assume (Cqfeat.separable (ghw 1) t);
      let lab = Cqfeat.classify (ghw 1) t t.Labeling.db in
      Labeling.disagreement lab t.Labeling.labeling = 0)

(* Algorithm 1 skips the arrows the class order already decides. On
   planted GHW(1)-separable instances its vectors and labels must equal
   those of the full ±1 vectors, with every representative asked by a
   fresh game; likewise for the CQ variant with homomorphisms. *)
let ghw1_queries =
  List.filter
    (fun q -> Cq_decomp.ghw_le q 1)
    (Cq_enum.feature_queries ~schema:[ ("E", 2); ("U", 1) ] ~max_atoms:2 ())

let prop_alg1_pruning_exact =
  QCheck.Test.make ~name:"pruned Algorithm 1 = unpruned vectors" ~count:25
    (QCheck.triple
       (spec_arb ~max_nodes:5 ~max_edges:6)
       (spec_arb ~max_nodes:5 ~max_edges:6)
       (QCheck.int_bound (List.length ghw1_queries - 1)))
    (fun (st, se, qi) ->
      let t = Planted.label_by_query (db_of_spec st) (List.nth ghw1_queries qi) in
      let eval_db = db_of_spec se in
      let agrees ch classify ~arrow =
        match Preorder_chain.consistent_labels ch t.Labeling.labeling with
        | Error _ -> false (* planted instances are separable *)
        | Ok labels ->
            let c = Preorder_chain.classifier ch labels in
            let full f =
              Array.map
                (fun rep -> if arrow rep f then 1 else -1)
                ch.Preorder_chain.reps
            in
            let ents = Db.entities eval_db in
            List.for_all
              (fun f -> Preorder_chain.vector_of ~arrow ch f = full f)
              ents
            && Labeling.equal (classify t eval_db)
                 (Labeling.of_list
                    (List.map (fun f -> (f, Linsep.classify c (full f))) ents))
      in
      agrees (Ghw_sep.chain ~k:1 t) (Ghw_sep.classify ~k:1)
        ~arrow:(fun rep f -> Cover_game.holds1 ~k:1 (t.db, rep) (eval_db, f))
      && agrees (Cq_sep.chain t) Cq_sep.classify
           ~arrow:(fun rep f -> Hom.pointed t.db [ rep ] eval_db [ f ]))

(* The searches of [Cq_sep.hom_preorder] share one context and settle
   arcs by transitivity and from every homomorphism they find; the
   matrix must still be exactly the pairwise pointed homomorphisms.
   The entity list repeats an entity and names one outside the domain
   (pinning it pins nothing). *)
let prop_hom_preorder_pairwise =
  QCheck.Test.make ~name:"hom_preorder = pairwise Hom.pointed" ~count:150
    (spec_arb ~max_nodes:7 ~max_edges:10)
    (fun s ->
      let db = db_of_spec s in
      let ents = Db.entities db in
      let ents = ents @ [ sym "outside" ] @ (match ents with e :: _ -> [ e ] | [] -> []) in
      let m = Cq_sep.hom_preorder db ents in
      List.for_all2
        (fun a row ->
          List.for_all2
            (fun b v -> v = Hom.pointed db [ a ] db [ b ])
            ents (Array.to_list row))
        ents (Array.to_list m))

(* Algorithm 1 vs the materialized statistic: on tiny instances where
   the unraveling stabilizes, the two classifications agree. *)
let test_alg1_matches_materialized () =
  let t = Families.two_path_gadget 2 in
  let eval_db =
    (* fresh paths of lengths 2 and 1 *)
    let p i n =
      List.init n (fun j ->
          ("E", [ sym (Printf.sprintf "q%d_%d" i j);
                  sym (Printf.sprintf "q%d_%d" i (j + 1)) ]))
    in
    let db = Db.of_list (p 1 2 @ p 2 1) in
    Db.add_entity (sym "q1_0") (Db.add_entity (sym "q2_0") db)
  in
  let alg1 = Cqfeat.classify (ghw 1) t eval_db in
  match Cqfeat.generate ~ghw_depth:4 (ghw 1) t with
  | None -> Alcotest.fail "separable"
  | Some (stat, c) ->
      let materialized = Statistic.induced_labeling stat c eval_db in
      check int_c "Alg1 = materialized" 0
        (Labeling.disagreement alg1 materialized);
      (* and the labels are the intuitive ones *)
      check bool_c "long path positive" true
        (Labeling.label_equal Labeling.Pos (Labeling.get (sym "q1_0") alg1));
      check bool_c "short path negative" true
        (Labeling.label_equal Labeling.Neg (Labeling.get (sym "q2_0") alg1))

(* --- Section 7: approximation ------------------------------------------ *)

(* Algorithm 2 produces a separable relabeling of minimal disagreement
   (checked against brute force over all relabelings). *)
let prop_alg2_optimal =
  QCheck.Test.make ~name:"Algorithm 2 disagreement is minimal" ~count:12
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      let relab, disagreement = Ghw_sep.apx_relabel ~k:1 t in
      let t' = Labeling.training t.Labeling.db relab in
      (* must be separable *)
      Cqfeat.separable (ghw 1) t'
      && Labeling.disagreement relab t.Labeling.labeling = disagreement
      &&
      (* brute force over all labelings *)
      let entities = Db.entities t.Labeling.db in
      List.for_all
        (fun lab ->
          let cand = Labeling.training t.Labeling.db lab in
          (not (Cqfeat.separable (ghw 1) cand))
          || Labeling.disagreement lab t.Labeling.labeling >= disagreement)
        (all_labelings entities))

let prop_apx_sep_epsilon_monotone =
  QCheck.Test.make ~name:"ApxSep monotone in eps" ~count:15
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      let s0 = Cqfeat.apx_separable ~eps:(rat 0 1) (ghw 1) t in
      let s1 = Cqfeat.apx_separable ~eps:(rat 1 4) (ghw 1) t in
      let s2 = Cqfeat.apx_separable ~eps:(rat 2 5) (ghw 1) t in
      ((not s0) || s1) && ((not s1) || s2))

let prop_apx_eps0_is_exact =
  QCheck.Test.make ~name:"ApxSep at eps=0 is exact Sep" ~count:15
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      Cqfeat.apx_separable ~eps:(rat 0 1) (ghw 1) t
      = Cqfeat.separable (ghw 1) t)

let test_apx_classify_flipped_chain () =
  (* On the alternating chain every entity is its own class, so even a
     flipped label is separable; use copies to create real classes. *)
  let base = Families.alternating_labels (Families.cycle 4) in
  (* all 4 cycle entities are ->_1-equivalent: one class, labels 2+/2-;
     algorithm 2 relabels all Pos (tie goes positive), disagreement 2 *)
  let relab, d = Ghw_sep.apx_relabel ~k:1 base in
  check int_c "disagreement" 2 d;
  check bool_c "all positive" true
    (List.for_all
       (fun (_, l) -> Labeling.label_equal l Labeling.Pos)
       (Labeling.bindings relab));
  let lab, err = Cqfeat.apx_classify ~eps:(rat 1 2) (ghw 1) base base.Labeling.db in
  check int_c "training error reported" 2 err;
  check int_c "eval labeled" 4 (Labeling.cardinal lab)

let test_cqm_apx () =
  let t = Families.example_62 () in
  let t' = Planted.flip_labels ~seed:7 ~count:1 t in
  check bool_c "eps=1/3 enough for one flip" true
    (Cqfeat.apx_separable ~eps:(rat 1 3) (cqm 1) t');
  check bool_c "CQ apx eps=1/3" true
    (Cqfeat.apx_separable ~eps:(rat 1 3) cq_all t')

(* Prop 7.1 reduction: padded instance is eps-separable iff original is
   exactly separable. *)
let prop_padding_reduction =
  QCheck.Test.make ~name:"Prop 7.1 padding preserves separability"
    ~count:6 (labeled_spec_arb ~max_nodes:3 ~max_edges:2) (fun ls ->
      let t = training_of_labeled ls in
      let eps = rat 1 4 in
      let padded = Apx_reduction.pad ~eps t in
      Cqfeat.separable (ghw 1) t
      = Cqfeat.apx_separable ~eps (ghw 1) padded.Apx_reduction.training)

(* --- Section 6: bounded dimension --------------------------------------- *)

let test_example62_dimension () =
  let t = Families.example_62 () in
  check bool_c "dim 1 impossible" false (Cqfeat.separable ~dim:1 cq_all t);
  check bool_c "dim 2 enough" true (Cqfeat.separable ~dim:2 cq_all t);
  Alcotest.(check (option int)) "min dimension" (Some 2)
    (Cqfeat.min_dimension cq_all t);
  (* same for the enumerable class *)
  Alcotest.(check (option int)) "min dimension CQ[1]" (Some 2)
    (Cqfeat.min_dimension (cqm 1) t)

let test_unbounded_dimension_growth () =
  (* Thm 8.7 shape: the alternating chain needs ever more features.
     Candidate indicator sets come from the enumerated GHW(1) fragment
     (the up-sets of the chain), avoiding the exponential QBE-based
     realizability sweep. *)
  let min_dim_with_enumerated_sets m =
    let t = Families.ghw_dimension_family m in
    let qs =
      List.filter
        (fun q -> Cq_decomp.ghw_le q 1)
        (Cq_enum.feature_queries ~schema:[ ("E", 2) ] ~max_atoms:(2 * m) ())
    in
    let sets =
      List.filter
        (fun s -> not (Elem.Set.is_empty s))
        (Fo_dimension.indicator_family ~queries:qs ~db:t.Labeling.db)
    in
    match Dim_sep.witness_with_sets ~dim:(2 * m) ~sets t with
    | Some (chosen, _) -> List.length chosen
    | None -> Alcotest.fail "chain must be separable"
  in
  let d1 = min_dim_with_enumerated_sets 1 in
  let d2 = min_dim_with_enumerated_sets 2 in
  check bool_c "growth" true (d1 < d2)

let prop_dim_monotone =
  QCheck.Test.make ~name:"Sep[l] monotone in l" ~count:10
    (labeled_spec_arb ~max_nodes:3 ~max_edges:3) (fun ls ->
      let t = training_of_labeled ls in
      let s1 = Cqfeat.separable ~dim:1 (cqm 2) t in
      let s2 = Cqfeat.separable ~dim:2 (cqm 2) t in
      (not s1) || s2)

let prop_dim_bounded_implies_unbounded =
  QCheck.Test.make ~name:"Sep[l] implies Sep" ~count:10
    (labeled_spec_arb ~max_nodes:3 ~max_edges:3) (fun ls ->
      let t = training_of_labeled ls in
      (not (Cqfeat.separable ~dim:2 cq_all t)) || Cqfeat.separable cq_all t)

let prop_unbounded_dim_sep_equals_enough_dim =
  QCheck.Test.make ~name:"Sep = Sep[n] at dimension n" ~count:10
    (labeled_spec_arb ~max_nodes:3 ~max_edges:3) (fun ls ->
      let t = training_of_labeled ls in
      let n = List.length (Db.entities t.Labeling.db) in
      Cqfeat.separable cq_all t = Cqfeat.separable ~dim:n cq_all t)

(* Lemma 6.5: QBE iff Sep[l] of the reduced instance. *)
let prop_lemma65 =
  QCheck.Test.make ~name:"Lemma 6.5 reduction is faithful" ~count:15
    (QCheck.pair (spec_arb ~max_nodes:2 ~max_edges:2) (QCheck.int_range 1 2))
    (fun (s, l) ->
      let db = db_of_spec s in
      let ents = Db.entities db in
      QCheck.assume (List.length ents >= 2);
      (* the lemma requires S- = dom \ S+ *)
      let pos = [ List.hd ents ] in
      let neg = List.tl ents in
      let inst = Qbe.make db ~pos ~neg in
      let reduced = Dim_sep.qbe_to_sep ~l inst in
      Qbe.cq_decide inst = Cqfeat.separable ~dim:l cq_all reduced)

(* --- the one combination search: Sep[l], Sep[*] and ApxSep[l] -------- *)

(* Small random trainings: 2 to 4 entities among 5 elements, over an
   edge relation and a unary one, sparse for some seeds. *)
let dim_training_arb =
  QCheck.(
    map
      (fun (seed, entities) ->
        Gen_db.random_training ~seed ~schema:[ ("E", 2); ("U", 1) ]
          ~domain_size:5 ~facts_per_rel:(1 + (seed mod 4)) ~entities ())
      (pair (int_range 0 10_000) (int_range 2 4)))

(* The definition the one-pass search replaces: the first dimension [d]
   with [L]-Sep[d], up to [|η(D)|]. *)
let reference_min_dimension lang t =
  let n = List.length (Db.entities t.Labeling.db) in
  let rec go d =
    if d > n then None
    else if Cqfeat.separable ~dim:d lang t then Some d
    else go (d + 1)
  in
  go 0

let prop_apx_dim_eps0_is_sep =
  QCheck.Test.make ~name:"ApxSep[l] at eps=0 is Sep[l]" ~count:20
    QCheck.(pair dim_training_arb (int_range 0 2))
    (fun (t, dim) ->
      List.for_all
        (fun lang ->
          Cqfeat.apx_separable ~dim ~eps:(rat 0 1) lang t
          = Cqfeat.separable ~dim lang t)
        [ cqm 1; cqm 2 ])

let prop_apx_dim_monotone =
  QCheck.Test.make ~name:"ApxSep[l] monotone in l and eps" ~count:15
    dim_training_arb (fun t ->
      let epss = [ rat 0 1; rat 1 4; rat 1 2 ] in
      List.for_all
        (fun lang ->
          let apx dim eps = Cqfeat.apx_separable ~dim ~eps lang t in
          List.for_all
            (fun dim ->
              let row = List.map (apx dim) epss in
              let rec up = function
                | a :: (b :: _ as rest) -> ((not a) || b) && up rest
                | _ -> true
              in
              up row
              && List.for_all2
                   (fun a b -> (not a) || b)
                   row
                   (List.map (apx (dim + 1)) epss))
            [ 0; 1; 2 ])
        [ cqm 1; cqm 2 ])

(* Besides the reference, dimension 0 is checked on its own: with no
   feature only a uniform labeling separates (FO counts from 1). *)
let prop_min_dimension_is_first_separable =
  QCheck.Test.make ~name:"min_dimension = first l with Sep[l]" ~count:20
    dim_training_arb (fun t ->
      let uniform =
        match Db.entities t.Labeling.db with
        | [] -> true
        | e :: rest ->
            let label e = Labeling.get e t.Labeling.labeling in
            List.for_all (fun e' -> label e' = label e) rest
      in
      List.for_all
        (fun lang ->
          let d = Cqfeat.min_dimension lang t in
          d = reference_min_dimension lang t
          && (lang = Language.Fo || d = Some 0 = uniform))
        [ cqm 1; cqm 2; Language.Fo; cq_all; ghw 1 ])

(* The min-error leaf stops at error 0 exactly where the witness search
   stops: on the same first separating choice. *)
let prop_min_errors_zero_is_witness =
  QCheck.Test.make ~name:"min_errors_with_sets 0 = witness_with_sets"
    ~count:15
    QCheck.(pair dim_training_arb (int_range 0 2))
    (fun (t, dim) ->
      let sets = Dim_sep.realizable_sets (cqm 2) t in
      match
        ( Dim_sep.min_errors_with_sets ~dim ~sets t,
          Dim_sep.witness_with_sets ~dim ~sets t )
      with
      | Some (0, chosen, _), Some (chosen', _) ->
          List.equal Elem.Set.equal chosen chosen'
      | Some (err, chosen, _), None -> err > 0 && List.length chosen <= dim
      | _ -> false)

let prop_epfo_realizable_sets_are_cq =
  QCheck.Test.make ~name:"realizable_sets Epfo = realizable_sets CQ" ~count:10
    dim_training_arb (fun t ->
      List.equal Elem.Set.equal
        (Dim_sep.realizable_sets Language.Epfo t)
        (Dim_sep.realizable_sets cq_all t))

(* Bounded-dimension generation: the realized features reproduce the
   chosen indicator sets and separate with the returned classifier. *)
let test_dim_generate_example62 () =
  let t = Families.example_62 () in
  match Cqfeat.generate ~dim:2 cq_all t with
  | None -> Alcotest.fail "dim-2 generation must succeed"
  | Some (stat, c) ->
      check int_c "dimension at most 2" 2 (Statistic.dimension stat);
      check int_c "separates exactly" 0 (Statistic.errors stat c t)

let prop_dim_generate_round_trip =
  QCheck.Test.make ~name:"Dim generation separates when Sep[l] holds"
    ~count:4 (labeled_spec_arb ~max_nodes:3 ~max_edges:3) (fun ls ->
      let t = training_of_labeled ls in
      match Cqfeat.generate ~dim:2 (cqm 2) t with
      | Some (stat, c) ->
          Statistic.dimension stat <= 2 && Statistic.errors stat c t = 0
      | None -> not (Cqfeat.separable ~dim:2 (cqm 2) t))

let test_dim_generate_ghw () =
  let t = Families.two_path_gadget 2 in
  match Cqfeat.generate ~dim:1 (ghw 1) t with
  | None -> Alcotest.fail "one GHW(1) feature must suffice"
  | Some (stat, c) ->
      check int_c "one feature" 1 (Statistic.dimension stat);
      check int_c "separates" 0 (Statistic.errors stat c t);
      check bool_c "feature has ghw 1" true
        (Cq_decomp.ghw_le (List.hd stat) 1)

(* --- FO and language dispatch ------------------------------------------- *)

let prop_fok_dim_collapse =
  QCheck.Test.make ~name:"FO_2-Sep = FO_2-Sep[1] (Cor 8.5)" ~count:10
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      Cqfeat.separable (Language.Fo_k 2) t
      = Cqfeat.separable ~dim:1 (Language.Fo_k 2) t)

let prop_fo_dim_collapse =
  QCheck.Test.make ~name:"FO-Sep = FO-Sep[1] (Prop 8.1)" ~count:15
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      Cqfeat.separable Language.Fo t = Cqfeat.separable ~dim:1 Language.Fo t)

let prop_epfo_equals_cq =
  QCheck.Test.make ~name:"∃FO+-Sep = CQ-Sep (Prop 8.3)" ~count:15
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      Cqfeat.separable Language.Epfo t = Cqfeat.separable cq_all t)

let prop_language_hierarchy =
  QCheck.Test.make ~name:"CQ-separable implies FO-separable" ~count:15
    (labeled_spec_arb ~max_nodes:4 ~max_edges:4) (fun ls ->
      let t = training_of_labeled ls in
      (not (Cqfeat.separable cq_all t)) || Cqfeat.separable Language.Fo t)

(* --- statistic utilities ------------------------------------------------ *)

let test_statistic_utilities () =
  let t = Families.example_62 () in
  let stat =
    [ Cq_parse.parse "x :- R(x)"; Cq_parse.parse "x :- S(x)" ]
  in
  check int_c "dimension" 2 (Statistic.dimension stat);
  (match Statistic.separating_classifier stat t with
  | Some c ->
      check int_c "errors" 0 (Statistic.errors stat c t);
      let lab = Statistic.induced_labeling stat c t.Labeling.db in
      check int_c "induced = labels" 0
        (Labeling.disagreement lab t.Labeling.labeling)
  | None -> Alcotest.fail "R,S statistic must separate Example 6.2");
  check int_c "max atoms" 1 (Statistic.max_atoms stat);
  let v = Statistic.vector stat t.Labeling.db (sym "a") in
  Alcotest.(check (array int)) "vector of a" [| 1; 1 |] v

(* --- feature-major evaluation -------------------------------------------- *)

(* A 5-clique over the existentials has ghw 3, past the planner's
   default width bound, so it is evaluated by hom search; the triangle
   plans to the decomposition engine. *)
let clique_feature =
  Cq_parse.parse
    "x :- E(x,a), E(a,b), E(a,c), E(a,d), E(a,f), E(b,c), E(b,d), E(b,f), \
     E(c,d), E(c,f), E(d,f)"

let triangle_feature = Cq_parse.parse "x :- E(x,a), E(a,b), E(b,c), E(c,a)"

let cqm2_features =
  lazy
    (Array.of_list
       (Cq_enum.feature_queries ~schema:[ ("E", 2); ("U", 1) ] ~max_atoms:2 ()))

(* The planner-free oracle: pointed hom search per entity and feature. *)
let reference_vector stat db e =
  Array.of_list
    (List.map (fun q -> if Cq.selects q db e then 1 else -1) stat)

let rows_match stat db rows es =
  List.length rows = List.length es
  && List.for_all2
       (fun (e', v) e -> Elem.equal e' e && v = reference_vector stat db e)
       rows es

let prop_vectors_for_matches_reference =
  QCheck.Test.make ~name:"vectors_for = per-entity Cq.selects" ~count:40
    QCheck.(
      triple (int_range 0 10_000)
        (list_of_size (Gen.int_range 0 4) (int_range 0 10_000))
        (list_of_size (Gen.int_range 0 6) (int_range 0 7)))
    (fun (seed, picks, asked) ->
      let t =
        Gen_db.random_training ~seed ~schema:[ ("E", 2); ("U", 1) ]
          ~domain_size:7 ~facts_per_rel:12 ~entities:4 ()
      in
      let db = t.Labeling.db in
      let features = Lazy.force cqm2_features in
      let stat =
        clique_feature :: triangle_feature
        :: List.map (fun i -> features.(i mod Array.length features)) picks
      in
      let domain = Array.of_list (Elem.Set.elements (Db.domain db)) in
      let outside =
        Elem.Set.elements
          (Elem.Set.diff (Db.domain db) (Elem.Set.of_list (Db.entities db)))
      in
      (* duplicates, elements outside eta (in the domain or not at all) *)
      let es =
        List.map (fun i -> domain.(i mod Array.length domain)) asked
        @ (Elem.sym "absent" :: outside)
        @ Db.entities db @ Db.entities db
      in
      let kind q = Eval_engine.plan_kind_name (Eval_engine.plan q) in
      kind clique_feature = "hom-search"
      && kind triangle_feature = "ghw-decomposition"
      && Statistic.vectors_for (Eval_engine.batch stat) db [] = []
      && rows_match stat db (Statistic.vectors_for (Eval_engine.batch stat) db es) es
      && rows_match stat db (Statistic.vectors stat db) (Db.entities db)
      && List.for_all
           (fun e -> Statistic.vector stat db e = reference_vector stat db e)
           es)

(* --- batched columns ------------------------------------------------------ *)

let batch_schema = [ ("E", 2); ("U", 1) ]

(* [columns] of [batch] (by default the plain batch of [features])
   against the planner-free oracle, a pointed hom search per feature
   and element of [es], and against each feature evaluated whole
   through its own plan. *)
let columns_match ?batch features db es =
  let batch =
    match batch with Some b -> b | None -> Eval_engine.batch features
  in
  let cols = Eval_engine.columns batch db (Array.of_list es) in
  Array.length cols = List.length features
  && List.for_all2
       (fun q col ->
         let whole =
           Elem.Set.of_list (Eval_engine.eval_with_plan q (Eval_engine.plan q) db)
         in
         List.for_all
           (fun (i, e) ->
             let set = Eval_engine.Column.mem col i in
             set = Cq.selects q db e && set = Elem.Set.mem e whole)
           (List.mapi (fun i e -> (i, e)) es))
       features (Array.to_list cols)

(* Sparse for some seeds, so that loops, triangles and even a whole
   relation can be missing and Boolean components fail. *)
let random_batch_training ~seed ~size =
  Gen_db.random_training ~seed ~schema:batch_schema ~domain_size:size
    ~facts_per_rel:(1 + (seed mod (2 * size))) ~entities:(size - 1) ()

let prop_batch_columns_match_reference =
  QCheck.Test.make ~name:"batch columns = per-feature evaluation" ~count:24
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 3) bool
        (list_of_size (Gen.int_range 0 5) (int_range 0 9)))
    (fun (seed, m, bounded, asked) ->
      let t = random_batch_training ~seed ~size:7 in
      let db = t.Labeling.db in
      let features =
        Cq_enum.feature_queries
          ?max_var_occ:(if bounded then Some 2 else None)
          ~schema:batch_schema ~max_atoms:m ()
      in
      let domain = Array.of_list (Elem.Set.elements (Db.domain db)) in
      (* repeats, and elements outside eta: in the domain or absent *)
      let es =
        List.map (fun i -> domain.(i mod Array.length domain)) asked
        @ (Elem.sym "absent" :: Elem.Set.elements (Db.domain db))
      in
      columns_match features db es)

(* The enumeration's batch is linked along the atom-extension lattice
   ([Eval_engine.linked_batch]); a plain batch of the same list is
   not, so the property above never reaches the lattice. With a
   ternary relation the lattice has children sharing two variables
   with their parent (T(x,y0,y1), then E(y0,y1)) and atoms repeating a
   variable (E(y0,y0)); at most 8 facts per relation, and none for
   some seeds, leave roots empty, which settles every component under
   them. *)
let lattice_schemas =
  [| [ ("E", 2); ("U", 1) ]; [ ("T", 3); ("E", 2); ("U", 1) ] |]

let prop_lattice_columns_match_reference =
  QCheck.Test.make ~name:"enumeration batch columns = per-feature evaluation"
    ~count:16
    QCheck.(quad (int_range 0 10_000) (int_range 1 3) (int_range 0 2) bool)
    (fun (seed, m, p, ternary) ->
      let schema = lattice_schemas.(if ternary then 1 else 0) in
      let m = if ternary then min m 2 else m in
      let t =
        Gen_db.random_training ~seed ~schema ~domain_size:6
          ~facts_per_rel:(seed mod 9) ~entities:5 ()
      in
      let db = t.Labeling.db in
      let features, batch =
        Cq_enum.feature_batch
          ?max_var_occ:(if p = 0 then None else Some p)
          ~schema ~max_atoms:m ()
      in
      columns_match ~batch features db
        (Elem.sym "absent" :: Elem.Set.elements (Db.domain db)))

(* The ternary enumeration links most of its components, but not all:
   E(y0,y1),T(y2,x,y0) loses x without T, and T(y2,x,y0) alone is
   enumerated as T(y0,x,y1), so it stays on its plan. *)
let test_lattice_links () =
  let features, b =
    Cq_enum.feature_batch ~schema:lattice_schemas.(1) ~max_atoms:2 ()
  in
  let (xl, xt), (bl, bt) = Eval_engine.link_counts b in
  check bool_c "most x-components linked, some planned" true
    (2 * xl > xt && xl < xt);
  check bool_c "every Boolean component linked" true (bl = bt && bt > 0);
  let (xl', _), (bl', _) =
    Eval_engine.link_counts (Eval_engine.batch features)
  in
  check (Alcotest.pair int_c int_c) "a plain batch links nothing" (0, 0) (xl', bl')

(* Every shape of link, by hand: a child sharing two variables with
   its parent, atoms repeating a variable, a Boolean chain; on
   databases where T, or E, is empty, so that a parent is empty or an
   extra atom has no rows. *)
let test_lattice_shapes () =
  let features =
    Cq.top
    :: List.map Cq_parse.parse
         [
           "x :- T(x,y,z)";
           "x :- T(x,y,z), E(y,z)";
           "x :- T(x,y,z), E(y,z), E(z,z)";
           "x :- U(x)";
           "x :- U(x), E(x,x)";
           "x :- E(w,w)";
           "x :- E(w,w), T(w,v,v)";
           "x :- U(x), E(w,w), T(w,v,v)";
         ]
  in
  let b = Eval_engine.linked_batch features in
  let (xl, xt), (bl, bt) = Eval_engine.link_counts b in
  check bool_c "every component linked" true (xl = xt && bl = bt);
  let db text =
    (Textfmt.training_of_document (Textfmt.parse_string text)).Labeling.db
  in
  let labels = "+a\n-c\n+d\n" in
  let ts = "T(a,b,c)\nT(c,d,d)\nT(d,b,b)\n"
  and es = "E(b,c)\nE(c,c)\nE(a,a)\nE(d,d)\n" in
  List.iter
    (fun text ->
      let db = db text in
      check bool_c "linked = reference" true
        (columns_match ~batch:b features db
           (Elem.sym "zz" :: Elem.Set.elements (Db.domain db))))
    [ ts ^ es ^ "U(a)\nU(d)\n" ^ labels; es ^ "U(a)\n" ^ labels; ts ^ labels ]

(* More than 62 entities: the columns span several words. *)
let test_batch_columns_many_entities () =
  let t = random_batch_training ~seed:11 ~size:70 in
  let db = t.Labeling.db in
  let es = Db.entities db in
  check bool_c "more than one word of entities" true (List.length es > 62);
  List.iter
    (fun (m, p) ->
      check bool_c
        (Printf.sprintf "CQ[%d%s] columns" m
           (match p with Some p -> Printf.sprintf ",%d" p | None -> ""))
        true
        (let features, batch =
           Cq_enum.feature_batch ?max_var_occ:p ~schema:batch_schema
             ~max_atoms:m ()
         in
         columns_match features db es && columns_match ~batch features db es))
    [ (1, None); (2, None); (2, Some 2); (3, Some 2) ]

(* A Boolean component gates the whole column: a loop or a detached
   triangle that the database lacks empties it; adding one restores
   the x-column. The detached triangle plans to the decomposition
   engine, the detached 5-clique to hom search. *)
let test_batch_boolean_components () =
  let base =
    Textfmt.training_of_document
      (Textfmt.parse_string
         "U(a)\nU(b)\nE(a,b)\nE(b,c)\nE(c,d)\n+a\n-b\n-c\n+d\n")
  in
  let db = base.Labeling.db in
  let looped = Db.add (Fact.make_l "E" [ sym "d"; sym "d" ]) db in
  let triangle =
    List.fold_left
      (fun db (u, v) -> Db.add (Fact.make_l "E" [ sym u; sym v ]) db)
      db
      [ ("p", "q"); ("q", "r"); ("r", "p") ]
  in
  let features =
    List.map Cq_parse.parse
      [
        "x :- U(x), E(y,y)";
        "x :- U(x), E(a,b), E(b,c), E(c,a)";
        "x :- E(x,y), E(z,z), U(w)";
        "x :- U(y)";
        "x :- U(x)";
        "x :- U(x), E(a,b), E(a,c), E(a,d), E(a,f), E(b,c), E(b,d), E(b,f), \
         E(c,d), E(c,f), E(d,f)";
      ]
  in
  let es = sym "zz" :: Elem.Set.elements (Db.domain triangle) in
  let column_of db q =
    (Eval_engine.columns (Eval_engine.batch [ q ]) db (Array.of_list es)).(0)
  in
  check bool_c "no loop: empty" true
    (Eval_engine.Column.is_empty (column_of db (List.hd features)));
  check bool_c "loop: nonempty" false
    (Eval_engine.Column.is_empty (column_of looped (List.hd features)));
  check bool_c "no triangle: empty" true
    (Eval_engine.Column.is_empty (column_of db (List.nth features 1)));
  List.iter
    (fun db -> check bool_c "batch = reference" true (columns_match features db es))
    [ db; looped; triangle ]

(* Prune by hand: the first feature of each distinct column, columns by
   pointed search. *)
let reference_pruned features db =
  let entities = Db.entities db in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun q ->
      let column = List.map (fun e -> Cq.selects q db e) entities in
      if Hashtbl.mem seen column then false
      else begin
        Hashtbl.add seen column ();
        true
      end)
    features

let prop_pruned_features_match_reference =
  QCheck.Test.make ~name:"pruned_features = reference dedupe" ~count:12
    QCheck.(pair (int_range 0 10_000) (int_range 1 3))
    (fun (seed, m) ->
      let t = random_batch_training ~seed ~size:6 in
      let features = Atoms_sep.all_features ~m t.Labeling.db in
      List.equal Cq.equal
        (Atoms_sep.pruned_features ~m t)
        (reference_pruned features t.Labeling.db))

let prop_realizable_sets_match_reference =
  QCheck.Test.make ~name:"CQ[m] realizable sets = per-entity reference" ~count:12
    QCheck.(triple (int_range 0 10_000) (int_range 1 3) bool)
    (fun (seed, m, bounded) ->
      let p = if bounded then Some 2 else None in
      let t = random_batch_training ~seed ~size:6 in
      let db = t.Labeling.db in
      let reference =
        List.filter_map
          (fun s -> if Elem.Set.is_empty s then None else Some s)
          (List.map
             (fun q -> Elem.Set.of_list (List.filter (Cq.selects q db) (Db.entities db)))
             (reference_pruned (Atoms_sep.all_features ~m ?p db) db))
      in
      let sets = Dim_sep.realizable_sets (Language.Cq_atoms { m; p }) t in
      List.length sets = List.length reference
      && List.for_all2 Elem.Set.equal sets reference)

(* Prop 6.9: the Vertex-Cover reduction — minimal dimension of the
   reduced instance equals the minimum vertex cover. *)
let test_vc_reduction_triangle () =
  (* triangle: VC = 2 *)
  let dim, vc = Vc_reduction.min_dimension_equals_cover
      ~edges:[ (1, 2); (2, 3); (3, 1) ] in
  check int_c "VC of triangle" 2 vc;
  Alcotest.(check (option int)) "dimension = VC" (Some vc) dim

let test_vc_reduction_star () =
  (* star: VC = 1 regardless of leaves *)
  let dim, vc = Vc_reduction.min_dimension_equals_cover
      ~edges:[ (0, 1); (0, 2); (0, 3) ] in
  check int_c "VC of star" 1 vc;
  Alcotest.(check (option int)) "dimension = VC" (Some vc) dim

let prop_vc_reduction_faithful =
  QCheck.Test.make ~name:"Prop 6.9 reduction: min dimension = VC" ~count:6
    (QCheck.list_of_size (QCheck.Gen.int_range 1 4)
       (QCheck.pair (QCheck.int_range 0 3) (QCheck.int_range 0 3)))
    (fun raw_edges ->
      let edges =
        List.sort_uniq compare
          (List.filter_map
             (fun (u, v) ->
               if u = v then None else Some (min u v, max u v))
             raw_edges)
      in
      QCheck.assume (edges <> []);
      let dim, vc = Vc_reduction.min_dimension_equals_cover ~edges in
      dim = Some vc)

let test_classify_with_dim () =
  let t = Families.example_62 () in
  let eval_db =
    Db.add_entity (sym "d")
      (Db.of_list [ ("R", [ sym "d" ]); ("S", [ sym "d" ]) ])
  in
  let lab = Cqfeat.classify ~dim:2 cq_all t eval_db in
  check bool_c "a-like entity positive" true
    (Labeling.label_equal Labeling.Pos (Labeling.get (sym "d") lab));
  match Cqfeat.classify ~dim:1 cq_all t eval_db with
  | exception Budget.Exhausted (Budget.Solver_error _) -> ()
  | _ -> Alcotest.fail "dim 1 must be rejected for Example 6.2"

let test_language_member () =
  let q1 = Cq_parse.parse "x :- E(x,y)" in
  let tri = Cq_parse.parse "x :- E(a,b), E(b,c), E(c,a)" in
  check bool_c "one atom in CQ[1]" true (Language.member (cqm 1) q1);
  check bool_c "triangle not in CQ[1]" false (Language.member (cqm 1) tri);
  check bool_c "triangle not in GHW(1)" false (Language.member (ghw 1) tri);
  check bool_c "triangle in GHW(2)" true (Language.member (ghw 2) tri);
  check bool_c "q1 in FO_2" true (Language.member (Language.Fo_k 2) q1);
  check bool_c "triangle not in FO_3" false
    (Language.member (Language.Fo_k 3) tri);
  check bool_c "everything in FO" true (Language.member Language.Fo tri);
  let qpp = Cq_parse.parse "x :- E(x,x)" in
  check bool_c "CQ[1,1] rejects repeats" false
    (Language.member (Language.Cq_atoms { m = 1; p = Some 1 }) qpp);
  check bool_c "CQ[1,2] accepts" true
    (Language.member (Language.Cq_atoms { m = 1; p = Some 2 }) qpp)

(* --- model serialization ------------------------------------------------ *)

let test_model_roundtrip () =
  let t = Families.example_62 () in
  match Cqfeat.generate (cqm 1) t with
  | None -> Alcotest.fail "generation"
  | Some (stat, c) ->
      let m = Model_io.make stat c in
      let m' = Model_io.of_string (Model_io.to_string m) in
      check int_c "features preserved" (Statistic.dimension stat)
        (Statistic.dimension m'.Model_io.statistic);
      check bool_c "threshold preserved" true
        (Rat.equal m.Model_io.classifier.Linsep.threshold
           m'.Model_io.classifier.Linsep.threshold);
      (* the reloaded model classifies identically *)
      check int_c "same labeling" 0
        (Labeling.disagreement
           (Model_io.apply m t.Labeling.db)
           (Model_io.apply m' t.Labeling.db))

let test_model_roundtrip_bignum () =
  (* chain-classifier weights exceed any float: serialization must be
     exact *)
  let t = Families.alternating_labels (Families.path 7) in
  match Cqfeat.generate Language.Cq_all t with
  | None -> Alcotest.fail "path is CQ-separable"
  | Some (stat, c) ->
      let m = Model_io.make stat c in
      let m' = Model_io.of_string (Model_io.to_string m) in
      Array.iteri
        (fun i w ->
          check bool_c
            (Printf.sprintf "weight %d exact" i)
            true
            (Rat.equal w m'.Model_io.classifier.Linsep.weights.(i)))
        m.Model_io.classifier.Linsep.weights

let test_model_errors () =
  let bad s =
    match Model_io.of_string s with
    | exception Model_io.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  bad "feature x :- R(x)
";
  (* missing threshold *)
  bad "threshold 0
weight 1
";
  (* weight/feature mismatch *)
  bad "feature x :- R(x)
threshold 0
weight 1/0
";
  (* bad rational *)
  bad "gibberish line
"

let test_language_of_string () =
  let ok s expected =
    match Language.of_string s with
    | Ok l ->
        check bool_c (Printf.sprintf "parse %S" s) true (l = expected)
    | Error msg -> Alcotest.failf "%S should parse, got error: %s" s msg
  in
  let bad s =
    match Language.of_string s with
    | Error _ -> ()
    | Ok l ->
        Alcotest.failf "%S should be rejected, parsed as %s" s
          (Language.to_string l)
  in
  ok "cq" Language.Cq_all;
  ok " CQ " Language.Cq_all;
  ok "cq[3]" (Language.Cq_atoms { m = 3; p = None });
  ok "cq[2,1]" (Language.Cq_atoms { m = 2; p = Some 1 });
  ok "ghw(2)" (Language.Ghw 2);
  ok "fo" Language.Fo;
  ok "fo2" (Language.Fo_k 2);
  ok "epfo" Language.Epfo;
  bad "";
  bad "cq[0]";
  bad "cq[-1]";
  bad "cq[2,0]";
  bad "cq[x]";
  bad "cq[1,2,3]";
  bad "cq[2";
  bad "ghw(0)";
  bad "ghw(x)";
  bad "ghw(1";
  bad "fo0";
  bad "fox";
  bad "datalog"

let () =
  Alcotest.run "separability"
    [
      ( "atoms (Sec 4)",
        [
          Alcotest.test_case "example 6.2" `Quick test_example62_atoms;
          qcheck prop_atoms_implies_cq;
          qcheck prop_atoms_monotone_in_m;
          qcheck prop_atoms_generation_round_trip;
          qcheck prop_cqmp_at_most_cqm;
        ] );
      ( "ghw (Sec 5)",
        [
          Alcotest.test_case "generate two paths" `Quick test_ghw_generate_two_paths;
          Alcotest.test_case "Alg1 = materialized" `Quick test_alg1_matches_materialized;
          qcheck prop_ghw_test_complete;
          qcheck prop_ghw_test_sound;
          qcheck prop_ghw_monotone_in_k;
          qcheck prop_ghw_implies_cq;
          qcheck prop_alg1_self_classification;
          qcheck prop_alg1_pruning_exact;
          qcheck prop_hom_preorder_pairwise;
        ] );
      ( "approx (Sec 7)",
        [
          Alcotest.test_case "apx classify cycle" `Quick test_apx_classify_flipped_chain;
          Alcotest.test_case "cqm apx" `Quick test_cqm_apx;
          qcheck prop_alg2_optimal;
          qcheck prop_apx_sep_epsilon_monotone;
          qcheck prop_apx_eps0_is_exact;
          qcheck prop_padding_reduction;
        ] );
      ( "dimension (Sec 6)",
        [
          Alcotest.test_case "example 6.2 dimensions" `Quick test_example62_dimension;
          Alcotest.test_case "dim generation 6.2" `Quick test_dim_generate_example62;
          Alcotest.test_case "dim generation ghw" `Quick test_dim_generate_ghw;
          Alcotest.test_case "VC reduction triangle" `Quick test_vc_reduction_triangle;
          Alcotest.test_case "VC reduction star" `Quick test_vc_reduction_star;
          Alcotest.test_case "classify with dim" `Quick test_classify_with_dim;
          Alcotest.test_case "language membership" `Quick test_language_member;
          Alcotest.test_case "language parsing" `Quick test_language_of_string;
          qcheck prop_vc_reduction_faithful;
          qcheck prop_dim_generate_round_trip;
          Alcotest.test_case "unbounded growth" `Quick test_unbounded_dimension_growth;
          qcheck prop_dim_monotone;
          qcheck prop_dim_bounded_implies_unbounded;
          qcheck prop_unbounded_dim_sep_equals_enough_dim;
          qcheck prop_lemma65;
        ] );
      ( "dimension search",
        [
          qcheck prop_apx_dim_eps0_is_sep;
          qcheck prop_apx_dim_monotone;
          qcheck prop_min_dimension_is_first_separable;
          qcheck prop_min_errors_zero_is_witness;
          qcheck prop_epfo_realizable_sets_are_cq;
        ] );
      ( "languages (Sec 8)",
        [
          qcheck prop_fo_dim_collapse;
          qcheck prop_fok_dim_collapse;
          qcheck prop_epfo_equals_cq;
          qcheck prop_language_hierarchy;
        ] );
      ( "statistic",
        [
          Alcotest.test_case "utilities" `Quick test_statistic_utilities;
          qcheck prop_vectors_for_matches_reference;
        ] );
      ( "batch columns",
        [
          qcheck prop_batch_columns_match_reference;
          Alcotest.test_case "more than 62 entities" `Quick
            test_batch_columns_many_entities;
          Alcotest.test_case "Boolean components" `Quick
            test_batch_boolean_components;
          qcheck prop_pruned_features_match_reference;
          qcheck prop_realizable_sets_match_reference;
          qcheck prop_lattice_columns_match_reference;
          Alcotest.test_case "lattice links" `Quick test_lattice_links;
          Alcotest.test_case "lattice shapes" `Quick test_lattice_shapes;
        ] );
      ( "model io",
        [
          Alcotest.test_case "roundtrip" `Quick test_model_roundtrip;
          Alcotest.test_case "bignum exact" `Quick test_model_roundtrip_bignum;
          Alcotest.test_case "errors" `Quick test_model_errors;
        ] );
    ]
