(* Tests for databases, homomorphisms, products, labelings and the
   text format. *)

open Test_util

let edge a b = ("E", [ sym a; sym b ])
let unary r a = (r, [ sym a ])

let path n pfx =
  List.init n (fun i ->
      edge (Printf.sprintf "%s%d" pfx i) (Printf.sprintf "%s%d" pfx (i + 1)))

(* --- Db -------------------------------------------------------------- *)

let test_db_basics () =
  let db = Db.of_list [ edge "a" "b"; edge "b" "c"; unary "U" "a" ] in
  check int_c "size" 3 (Db.size db);
  check int_c "domain" 3 (Db.domain_size db);
  check bool_c "mem" true (Db.mem (Fact.make_l "E" [ sym "a"; sym "b" ]) db);
  check bool_c "not mem" false (Db.mem (Fact.make_l "E" [ sym "b"; sym "a" ]) db);
  check int_c "facts of E" 2 (List.length (Db.facts_of_rel "E" db));
  check int_c "facts with b" 2 (List.length (Db.facts_with_elem (sym "b") db));
  check int_c "max arity" 2 (Db.max_arity db);
  (* idempotent add *)
  let db' = Db.add (Fact.make_l "E" [ sym "a"; sym "b" ]) db in
  check bool_c "idempotent" true (Db.equal db db')

let test_db_entities () =
  let db = Db.of_list [ edge "a" "b" ] in
  check int_c "no entities" 0 (List.length (Db.entities db));
  let db = Db.add_entity (sym "a") db in
  check int_c "one entity" 1 (List.length (Db.entities db));
  check bool_c "is entity" true (Db.is_entity (sym "a") db);
  check bool_c "not entity" false (Db.is_entity (sym "b") db)

let test_db_transforms () =
  let db = Db.of_list [ edge "a" "b"; unary "U" "a" ] in
  let renamed = Db.map_elems (fun e -> Elem.tup [ e ]) db in
  check int_c "renamed size" 2 (Db.size renamed);
  check bool_c "renamed mem" true
    (Db.mem (Fact.make_l "U" [ Elem.tup [ sym "a" ] ]) renamed);
  let only_e = Db.restrict_rels [ "E" ] db in
  check int_c "restricted" 1 (Db.size only_e);
  let no_u = Db.without_rel "U" db in
  check bool_c "without U" true (Db.equal only_e no_u);
  let u = Db.union db (Db.of_list [ edge "b" "c" ]) in
  check int_c "union" 3 (Db.size u)

(* --- Hom ------------------------------------------------------------- *)

let test_hom_identity () =
  let db = Db.of_list (path 3 "v") in
  match Hom.find ~src:db ~dst:db () with
  | None -> Alcotest.fail "identity hom must exist"
  | Some h -> check bool_c "is hom" true (Hom.is_hom h ~src:db ~dst:db)

let test_hom_cycles () =
  let c3 = Db.of_list [ edge "a" "b"; edge "b" "c"; edge "c" "a" ] in
  let c6 =
    Db.of_list
      (List.init 6 (fun i ->
           edge (Printf.sprintf "u%d" i) (Printf.sprintf "u%d" ((i + 1) mod 6))))
  in
  check bool_c "C6 -> C3" true (Hom.exists ~src:c6 ~dst:c3 ());
  check bool_c "C3 -/-> C6" false (Hom.exists ~src:c3 ~dst:c6 ())

let test_hom_pointed () =
  let p = Db.of_list (path 3 "v") in
  check bool_c "pointed id" true (Hom.pointed p [ sym "v1" ] p [ sym "v1" ]);
  check bool_c "v0 -> v0" true (Hom.pointed p [ sym "v0" ] p [ sym "v0" ]);
  (* A directed path is a core: only the identity endomorphism. *)
  check bool_c "v0 -/-> v1" false (Hom.pointed p [ sym "v0" ] p [ sym "v1" ]);
  check bool_c "v1 -/-> v0" false (Hom.pointed p [ sym "v1" ] p [ sym "v0" ]);
  (* A shorter path maps into a longer one, pointed at the start. *)
  let p2 = Db.of_list (path 2 "w") in
  check bool_c "short -> long" true
    (Hom.pointed p2 [ sym "w0" ] p [ sym "v0" ]);
  check bool_c "long -/-> short" false
    (Hom.pointed p [ sym "v0" ] p2 [ sym "w0" ])

let test_hom_fix_conflict () =
  let db = Db.of_list [ edge "a" "b" ] in
  check bool_c "conflicting fix" false
    (Hom.exists
       ~fix:[ (sym "a", sym "a"); (sym "a", sym "b") ]
       ~src:db ~dst:db ())

let prop_found_hom_is_hom =
  QCheck.Test.make ~name:"found homomorphisms verify" ~count:100
    (QCheck.pair (spec_arb ~max_nodes:4 ~max_edges:5)
       (spec_arb ~max_nodes:4 ~max_edges:5))
    (fun (sa, sb) ->
      let a = db_of_spec sa and b = db_of_spec sb in
      match Hom.find ~src:a ~dst:b () with
      | Some h -> Hom.is_hom h ~src:a ~dst:b
      | None -> true)

let prop_hom_reflexive =
  QCheck.Test.make ~name:"D -> D always" ~count:100
    (spec_arb ~max_nodes:4 ~max_edges:6) (fun s ->
      let d = db_of_spec s in
      Hom.exists ~src:d ~dst:d ())

let prop_hom_transitive =
  QCheck.Test.make ~name:"A->B and B->C imply A->C" ~count:60
    (QCheck.triple
       (spec_arb ~max_nodes:3 ~max_edges:4)
       (spec_arb ~max_nodes:3 ~max_edges:4)
       (spec_arb ~max_nodes:3 ~max_edges:4))
    (fun (sa, sb, sc) ->
      let a = db_of_spec sa and b = db_of_spec sb and c = db_of_spec sc in
      let ab = Hom.exists ~src:a ~dst:b () in
      let bc = Hom.exists ~src:b ~dst:c () in
      QCheck.assume (ab && bc);
      Hom.exists ~src:a ~dst:c ())

(* A spec's database plus a ternary relation read off consecutive
   edges, which repeats an element whenever a path closes on itself. *)
let db_with_ternary spec =
  let rec tern db = function
    | (a, b) :: ((_, c) :: _ as rest) ->
        tern (Db.add (Fact.make_l "T" [ e a; e b; e c ]) db) rest
    | _ -> db
  in
  tern (db_of_spec spec) spec.edges

(* Pins over e0..e5: some outside either domain, some conflicting. *)
let pins_arb =
  QCheck.list_of_size (QCheck.Gen.int_range 0 3)
    (QCheck.list_of_size (QCheck.Gen.int_range 0 2)
       (QCheck.pair (QCheck.int_range 0 5) (QCheck.int_range 0 5)))

(* One context per pair of databases answers every pinned question as
   the brute-force reference does, and a mapping it returns is a
   homomorphism extending the pins; [find] on a fresh context agrees
   too. Both directions and [src == dst] share the check. *)
let prop_find_ctx_matches_reference =
  QCheck.Test.make ~name:"find_ctx matches the brute-force reference"
    ~count:200
    (QCheck.triple (spec_arb ~max_nodes:5 ~max_edges:7)
       (spec_arb ~max_nodes:5 ~max_edges:7) pins_arb)
    (fun (sa, sb, pins) ->
      let a = db_with_ternary sa and b = db_with_ternary sb in
      let agrees src dst =
        let ctx = Hom.context ~src ~dst in
        List.for_all
          (fun pin ->
            let fix = List.map (fun (x, y) -> (e x, e y)) pin in
            let extends h =
              Hom.is_hom h ~src ~dst
              && List.for_all
                   (fun (x, y) ->
                     (not (Elem.Set.mem x (Db.domain src)))
                     || Elem.equal (Elem.Map.find x h) y)
                   fix
            in
            let expected = Hom_ref.exists ~fix ~src ~dst in
            expected = Hom.exists ~fix ~src ~dst ()
            &&
            match Hom.find_ctx ctx ~fix with
            | Some h -> expected && extends h
            | None -> not expected)
          ([] :: pins)
      in
      agrees a b && agrees b a && agrees a a)

let test_find_ctx_edges () =
  let nullary = Fact.make_l "Z" [] in
  let a = Db.of_list [ edge "a" "b" ] in
  let with_z = Db.add nullary a in
  let ask src dst fix = Hom.find_ctx (Hom.context ~src ~dst) ~fix <> None in
  check bool_c "nullary fact missing from dst" false (ask with_z a []);
  check bool_c "nullary fact present in dst" true (ask with_z with_z []);
  check bool_c "empty source" true (ask Db.empty a [ (sym "a", sym "b") ]);
  check bool_c "pin outside dom src is ignored" true
    (ask a a [ (sym "zz", sym "a") ]);
  check bool_c "pin into an element outside dom dst" false
    (ask a a [ (sym "a", sym "zz") ]);
  check bool_c "conflicting pins" false
    (ask a a [ (sym "a", sym "a"); (sym "a", sym "b") ])

(* --- Product --------------------------------------------------------- *)

let test_product_counts () =
  let a = Db.of_list [ edge "a" "b"; edge "b" "a" ] in
  let b = Db.of_list [ edge "x" "y" ] in
  let p = Product.binary a b in
  check int_c "product facts" 2 (Db.size p)

let prop_product_categorical =
  QCheck.Test.make
    ~name:"(C -> AxB) iff (C -> A and C -> B)" ~count:60
    (QCheck.triple
       (spec_arb ~max_nodes:3 ~max_edges:4)
       (spec_arb ~max_nodes:3 ~max_edges:4)
       (spec_arb ~max_nodes:3 ~max_edges:4))
    (fun (sc, sa, sb) ->
      let c = db_of_spec sc and a = db_of_spec sa and b = db_of_spec sb in
      let p = Product.binary a b in
      let lhs = Hom.exists ~src:c ~dst:p () in
      let rhs = Hom.exists ~src:c ~dst:a () && Hom.exists ~src:c ~dst:b () in
      lhs = rhs)

let prop_product_projections =
  QCheck.Test.make ~name:"projections are homomorphisms" ~count:60
    (QCheck.pair (spec_arb ~max_nodes:3 ~max_edges:4)
       (spec_arb ~max_nodes:3 ~max_edges:4))
    (fun (sa, sb) ->
      let a = db_of_spec sa and b = db_of_spec sb in
      let p = Product.binary a b in
      let proj i =
        List.for_all
          (fun f ->
            let g = Fact.map_elems
                (fun el ->
                  match el with
                  | Elem.Tup [ x; y ] -> if i = 0 then x else y
                  | _ -> el)
                f
            in
            Db.mem g (if i = 0 then a else b))
          (Db.facts p)
      in
      proj 0 && proj 1)

let test_product_pointed () =
  let a = Db.of_list [ edge "a" "b" ] in
  let db, pt = Product.pointed [ (a, sym "a"); (a, sym "b") ] in
  check bool_c "point" true (Elem.equal pt (Elem.tup [ sym "a"; sym "b" ]));
  check int_c "pointed size" 1 (Db.size db)

(* --- Labeling -------------------------------------------------------- *)

let test_labeling () =
  let l =
    Labeling.of_list [ (sym "a", Labeling.Pos); (sym "b", Labeling.Neg) ]
  in
  check int_c "cardinal" 2 (Labeling.cardinal l);
  check int_c "positives" 1 (List.length (Labeling.positives l));
  check bool_c "get" true (Labeling.get (sym "a") l = Labeling.Pos);
  let l2 = Labeling.set (sym "a") Labeling.Neg l in
  check int_c "disagreement" 1 (Labeling.disagreement l l2)

let test_training_validation () =
  let db = Db.add_entity (sym "a") Db.empty in
  (match Labeling.training db Labeling.empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unlabeled entity must be rejected");
  match
    Labeling.training db (Labeling.of_list [ (sym "z", Labeling.Pos) ])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "label of non-entity must be rejected"

(* --- Textfmt --------------------------------------------------------- *)

let test_textfmt_roundtrip () =
  let source = "# comment\nE(a, b)\nE(b, c)\nU(a)\n+a\n-b\n+c\n" in
  let doc = Textfmt.parse_string source in
  let t = Textfmt.training_of_document doc in
  check int_c "entities" 3 (List.length (Db.entities t.Labeling.db));
  check int_c "facts" 6 (Db.size t.Labeling.db);
  let printed = Textfmt.print_training t in
  let t2 = Textfmt.training_of_document (Textfmt.parse_string printed) in
  check bool_c "roundtrip db" true (Db.equal t.Labeling.db t2.Labeling.db);
  check bool_c "roundtrip labels" true
    (Labeling.equal t.Labeling.labeling t2.Labeling.labeling)

let test_textfmt_tuples () =
  let doc = Textfmt.parse_string "R((a,b), 3)\n?(a,b)\n" in
  check int_c "facts" 2 (Db.size doc.Textfmt.db);
  check bool_c "tuple entity" true
    (Db.is_entity (Elem.tup [ sym "a"; sym "b" ]) doc.Textfmt.db)

let test_textfmt_errors () =
  let bad s =
    match Textfmt.parse_string s with
    | exception Textfmt.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  bad "E(a";
  bad "E a b";
  bad "+";
  bad "%%%"

let mentions msg needle =
  let lm = String.length msg and ln = String.length needle in
  let rec go i =
    i + ln <= lm && (String.sub msg i ln = needle || go (i + 1))
  in
  go 0

let test_textfmt_hardening () =
  let fails_with needle s =
    match Textfmt.parse_string s with
    | exception Textfmt.Parse_error msg ->
        if not (mentions msg needle) then
          Alcotest.failf "error %S does not mention %S" msg needle
    | _ -> Alcotest.fail "should not parse"
  in
  (* conflicting labels are rejected, naming the entity *)
  fails_with "conflicting label" "E(a,b)\n+a\n-a\n";
  fails_with "already labeled '+'" "E(a,b)\n+a\n-a\n";
  fails_with "already labeled '-'" "E(a,b)\n-a\n+a\n";
  (* repeating the same label is allowed *)
  ignore (Textfmt.parse_string "E(a,b)\n+a\n+a\n");
  (* arity caps on facts and on tuple widths; 64 itself is fine *)
  let args n =
    String.concat ", " (List.init n (Printf.sprintf "a%d"))
  in
  ignore (Textfmt.parse_string (Printf.sprintf "R(%s)\n" (args 64)));
  fails_with "arity 65" (Printf.sprintf "R(%s)\n" (args 65));
  fails_with "width 65" (Printf.sprintf "U((%s))\n" (args 65));
  (* line-length cap *)
  fails_with "exceeds the maximum 65536" ("# " ^ String.make 70_000 'x');
  (* error messages name the offending token *)
  fails_with "\"b\"" "E(a) b\n";
  fails_with "'%'" "%%%";
  fails_with "end of line" "E(a"

let () =
  Alcotest.run "relational"
    [
      ( "db",
        [
          Alcotest.test_case "basics" `Quick test_db_basics;
          Alcotest.test_case "entities" `Quick test_db_entities;
          Alcotest.test_case "transforms" `Quick test_db_transforms;
        ] );
      ( "hom",
        [
          Alcotest.test_case "identity" `Quick test_hom_identity;
          Alcotest.test_case "cycles" `Quick test_hom_cycles;
          Alcotest.test_case "pointed" `Quick test_hom_pointed;
          Alcotest.test_case "fix conflict" `Quick test_hom_fix_conflict;
          qcheck prop_found_hom_is_hom;
          qcheck prop_hom_reflexive;
          qcheck prop_hom_transitive;
          qcheck prop_find_ctx_matches_reference;
          Alcotest.test_case "find_ctx edge cases" `Quick test_find_ctx_edges;
        ] );
      ( "product",
        [
          Alcotest.test_case "counts" `Quick test_product_counts;
          Alcotest.test_case "pointed" `Quick test_product_pointed;
          qcheck prop_product_categorical;
          qcheck prop_product_projections;
        ] );
      ( "labeling",
        [
          Alcotest.test_case "basics" `Quick test_labeling;
          Alcotest.test_case "training validation" `Quick test_training_validation;
        ] );
      ( "textfmt",
        [
          Alcotest.test_case "roundtrip" `Quick test_textfmt_roundtrip;
          Alcotest.test_case "tuples" `Quick test_textfmt_tuples;
          Alcotest.test_case "errors" `Quick test_textfmt_errors;
          Alcotest.test_case "hardening" `Quick test_textfmt_hardening;
        ] );
    ]
