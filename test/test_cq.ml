(* Tests for conjunctive queries: evaluation, containment, cores,
   conjunction, enumeration and decompositions. *)

open Test_util

let q s = Cq_parse.parse s
let edge a b = ("E", [ sym a; sym b ])

let path_db n =
  let db =
    Db.of_list
      (List.init n (fun i ->
           edge (Printf.sprintf "v%d" i) (Printf.sprintf "v%d" (i + 1))))
  in
  List.fold_left
    (fun db i -> Db.add_entity (sym (Printf.sprintf "v%d" i)) db)
    db
    (List.init (n + 1) (fun i -> i))

(* --- evaluation ------------------------------------------------------ *)

let test_eval_path () =
  let db = path_db 4 in
  let q2 = q "x :- E(x,y), E(y,z)" in
  let sel = List.sort Elem.compare (Cq.eval q2 db) in
  Alcotest.(check (list string))
    "two forward steps" [ "v0"; "v1"; "v2" ]
    (List.map Elem.to_string sel)

let test_eval_empty_body () =
  let db = path_db 2 in
  Alcotest.(check int) "top selects all" 3 (List.length (Cq.eval Cq.top db))

let test_eval_disconnected () =
  (* q(x) :- U(z): selects every entity iff some U fact exists *)
  let qd = q "x :- U(z)" in
  let db = Db.add_entity (sym "a") (Db.of_list [ ("U", [ sym "b" ]) ]) in
  Alcotest.(check int) "selected" 1 (List.length (Cq.eval qd db));
  let db2 = Db.add_entity (sym "a") Db.empty in
  Alcotest.(check int) "none" 0 (List.length (Cq.eval qd db2))

let test_selects_requires_entity () =
  let db = Db.of_list [ edge "a" "b" ] in
  (* no eta facts: nothing selected *)
  let q1 = q "x :- E(x,y)" in
  Alcotest.(check bool) "a not entity" false (Cq.selects q1 db (sym "a"))

(* --- atoms / vars ----------------------------------------------------- *)

let test_counting () =
  let q3 = q "x :- E(x,y), E(y,z), U(x)" in
  Alcotest.(check int) "atoms" 3 (Cq.num_atoms q3);
  Alcotest.(check int) "vars" 3 (Elem.Set.cardinal (Cq.vars q3));
  Alcotest.(check int) "existential" 2
    (Elem.Set.cardinal (Cq.existential_vars q3));
  Alcotest.(check int) "max occurrences" 2 (Cq.max_var_occurrences q3)

(* --- containment ------------------------------------------------------ *)

let test_containment () =
  let q1 = q "x :- E(x,y), E(y,z)" in
  let q2 = q "x :- E(x,y)" in
  Alcotest.(check bool) "2-step ⊑ 1-step" true (Cq.contained_in q1 q2);
  Alcotest.(check bool) "1-step ⋢ 2-step" false (Cq.contained_in q2 q1);
  let q1' = q "x :- E(x,u), E(u,w)" in
  Alcotest.(check bool) "alpha-equivalent" true (Cq.equivalent q1 q1')

let test_containment_fold () =
  (* E(x,y),E(y,x) (2-cycle through x) is contained in E(x,x)? No:
     containment means canonical db of superset maps...
     q_loop(x) :- E(x,x) is contained in q_cyc(x) :- E(x,y),E(y,x)
     because folding y to x maps the cycle onto the loop. *)
  let q_loop = q "x :- E(x,x)" in
  let q_cyc = q "x :- E(x,y), E(y,x)" in
  Alcotest.(check bool) "loop ⊑ cycle" true (Cq.contained_in q_loop q_cyc);
  Alcotest.(check bool) "cycle ⋢ loop" false (Cq.contained_in q_cyc q_loop)

(* --- core ------------------------------------------------------------- *)

let test_core_redundant_atom () =
  (* E(x,y) ∧ E(x,z): z-branch is redundant *)
  let qr = q "x :- E(x,y), E(x,z)" in
  let c = Cq.core qr in
  Alcotest.(check int) "core atoms" 1 (Cq.num_atoms c);
  Alcotest.(check bool) "equivalent" true (Cq.equivalent qr c)

let test_core_keeps_needed () =
  let qn = q "x :- E(x,y), E(y,z)" in
  let c = Cq.core qn in
  Alcotest.(check int) "core keeps both" 2 (Cq.num_atoms c)

let prop_core_equivalent =
  QCheck.Test.make ~name:"core is equivalent and no larger" ~count:40
    (spec_arb ~max_nodes:3 ~max_edges:4)
    (fun s ->
      let db = db_of_spec s in
      QCheck.assume (Db.domain_size db > 0);
      let e0 = List.hd (Elem.Set.elements (Db.domain db)) in
      let qq = Cq.of_pointed_db (db, e0) in
      let c = Cq.core qq in
      Cq.equivalent qq c && Cq.num_atoms c <= Cq.num_atoms qq)

let prop_core_idempotent =
  QCheck.Test.make ~name:"core is idempotent" ~count:25
    (spec_arb ~max_nodes:3 ~max_edges:4)
    (fun s ->
      let db = db_of_spec s in
      QCheck.assume (Db.domain_size db > 0);
      let e0 = List.hd (Elem.Set.elements (Db.domain db)) in
      let c = Cq.core (Cq.of_pointed_db (db, e0)) in
      Cq.num_atoms (Cq.core c) = Cq.num_atoms c)

(* --- conjunction ------------------------------------------------------ *)

let prop_conjoin_semantics =
  QCheck.Test.make ~name:"conjoin selects iff both select" ~count:40
    (spec_arb ~max_nodes:4 ~max_edges:5)
    (fun s ->
      let db = db_of_spec s in
      let q1 = q "x :- E(x,y)" and q2 = q "x :- U(x)" in
      let qc = Cq.conjoin q1 q2 in
      List.for_all
        (fun en ->
          Cq.selects qc db en = (Cq.selects q1 db en && Cq.selects q2 db en))
        (Db.entities db))

let test_conjoin_all () =
  let qs = [ q "x :- E(x,y)"; q "x :- E(y,x)"; q "x :- U(x)" ] in
  let qc = Cq.conjoin_all qs in
  Alcotest.(check int) "atom count" 3 (Cq.num_atoms qc);
  match Cq.conjoin_all [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty conjoin_all must raise"

(* --- parse / print ---------------------------------------------------- *)

let test_parse_roundtrip () =
  let cases =
    [ "x :- E(x,y), E(y,z)"; "x :- true"; "x :- U(x), E(x,x)" ]
  in
  List.iter
    (fun s ->
      let q1 = q s in
      let q2 = q (Cq.to_string q1) in
      Alcotest.(check bool) (s ^ " roundtrip") true (Cq.equivalent q1 q2))
    cases;
  match Cq_parse.parse "E(x,y)" with
  | exception Cq_parse.Parse_error _ -> ()
  | _ -> Alcotest.fail "missing head must fail"

let test_iso_canonical () =
  let a = q "x :- E(x,y), E(y,z)" in
  let b = q "x :- E(x,u), E(u,v)" in
  let c = q "x :- E(x,y), E(z,y)" in
  Alcotest.(check string) "iso equal" (Cq.iso_canonical_string a)
    (Cq.iso_canonical_string b);
  Alcotest.(check bool) "distinct" true
    (Cq.iso_canonical_string a <> Cq.iso_canonical_string c);
  (* Color refinement cannot split these: every existential variable
     has one in- and one out-edge, so the key rests on the search over
     renamings inside the single color class. *)
  let triangles = q "x :- E(a,b), E(b,c), E(c,a), E(d,e), E(e,f), E(f,d)" in
  let interleaved = q "x :- E(a,c), E(c,e), E(e,a), E(b,d), E(d,f), E(f,b)" in
  let hexagon = q "x :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)" in
  Alcotest.(check string) "two triangles, renamed"
    (Cq.iso_canonical_string triangles)
    (Cq.iso_canonical_string interleaved);
  Alcotest.(check bool) "two triangles vs hexagon" true
    (Cq.iso_canonical_string triangles <> Cq.iso_canonical_string hexagon)

(* Random small queries: at most 3 atoms over R/1, E/2, T/3, arguments
   drawn from the free variable (index 0) and 4 existential ones. The
   second query of a pair is independent, a renaming of the first
   (free variable included, atoms shuffled), or such a renaming with
   one argument changed. *)
type iso_pair = {
  atoms : (int * int list) list;
  mode : int;
  perm : int list;
  other : (int * int list) list;
  tweak : int * int;
}

let iso_rels = [| ("R", 1); ("E", 2); ("T", 3) |]

let iso_pair_arb =
  let open QCheck.Gen in
  let atom =
    int_range 0 2 >>= fun r ->
    list_repeat (snd iso_rels.(r)) (int_range 0 4) >>= fun args ->
    return (r, args)
  in
  let atoms = list_size (int_range 0 3) atom in
  let gen =
    atoms >>= fun first ->
    int_range 0 2 >>= fun mode ->
    shuffle_l [ 1; 2; 3; 4 ] >>= fun perm ->
    (if mode = 0 then atoms else shuffle_l first) >>= fun other ->
    pair (int_range 0 8) (int_range 0 4) >>= fun tweak ->
    return { atoms = first; mode; perm; other; tweak }
  in
  QCheck.make
    ~print:(fun p ->
      let show l =
        String.concat ";"
          (List.map
             (fun (r, args) ->
               Printf.sprintf "%s(%s)" (fst iso_rels.(r))
                 (String.concat "," (List.map string_of_int args)))
             l)
      in
      Printf.sprintf "{atoms=%s; mode=%d; perm=%s; other=%s; tweak=(%d,%d)}"
        (show p.atoms) p.mode
        (String.concat "," (List.map string_of_int p.perm))
        (show p.other) (fst p.tweak) (snd p.tweak))
    gen

let iso_query ~var atoms =
  Cq.make ~free:(var 0)
    (List.map
       (fun (r, args) -> Fact.make_l (fst iso_rels.(r)) (List.map var args))
       atoms)

let iso_queries p =
  let y i = if i = 0 then Cq.default_free else sym (Printf.sprintf "y%d" i) in
  let z i =
    if i = 0 then sym "w" else sym (Printf.sprintf "z%d" (List.nth p.perm (i - 1)))
  in
  let tweaked =
    (* argument number [pos], counted over all atoms, becomes [v] *)
    let pos, v = p.tweak in
    let k = ref 0 in
    List.map
      (fun (r, args) ->
        ( r,
          List.map
            (fun a ->
              let here = !k = pos in
              incr k;
              if here then v else a)
            args ))
      p.other
  in
  let q2 =
    match p.mode with
    | 0 -> iso_query ~var:y p.other
    | 1 -> iso_query ~var:z p.other
    | _ -> iso_query ~var:z tweaked
  in
  (iso_query ~var:y p.atoms, q2)

(* Brute force: some bijection of the existential variables, with the
   free variables matched, maps the atoms of [q1] onto those of [q2]. *)
let brute_isomorphic q1 q2 =
  let ex1 = Elem.Set.elements (Cq.existential_vars q1) in
  let ex2 = Elem.Set.elements (Cq.existential_vars q2) in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (perms (List.filter (fun y -> y <> x) l)))
          l
  in
  List.length ex1 = List.length ex2
  && List.exists
       (fun image ->
         let map v =
           if Elem.equal v (Cq.free q1) then Cq.free q2
           else List.assoc v (List.combine ex1 image)
         in
         Db.equal (Db.map_elems map (Cq.canonical q1)) (Cq.canonical q2))
       (perms ex2)

let prop_iso_key_exact =
  QCheck.Test.make ~name:"iso key equal iff isomorphic" ~count:500 iso_pair_arb
    (fun p ->
      let q1, q2 = iso_queries p in
      Bool.equal
        (String.equal (Cq.iso_canonical_string q1) (Cq.iso_canonical_string q2))
        (brute_isomorphic q1 q2))

(* --- enumeration ------------------------------------------------------ *)

let test_enum_counts_unary () =
  (* CQ[1] over {R/1}: top, R(x), R(y) *)
  Alcotest.(check int) "CQ[1] over R/1" 3
    (Cq_enum.count ~schema:[ ("R", 1) ] ~max_atoms:1 ());
  (* CQ[2] over {R/1}: plus R(x)R(y), R(y)R(z) *)
  Alcotest.(check int) "CQ[2] over R/1" 5
    (Cq_enum.count ~schema:[ ("R", 1) ] ~max_atoms:2 ())

let test_enum_counts_binary () =
  (* CQ[1] over {E/2}: top + E(x,x) E(x,y) E(y,x) E(y,y) E(y,z) *)
  Alcotest.(check int) "CQ[1] over E/2" 6
    (Cq_enum.count ~schema:[ ("E", 2) ] ~max_atoms:1 ())

let test_enum_var_occurrence_restriction () =
  (* CQ[1,1] over {E/2}: each variable at most once: E(x,y) with x used
     once... x also occurs in eta which is not counted; patterns E(y,z)
     and E(x,y) qualify; E(x,x), E(y,y) do not. *)
  let qs =
    Cq_enum.feature_queries ~max_var_occ:1 ~schema:[ ("E", 2) ] ~max_atoms:1 ()
  in
  Alcotest.(check int) "CQ[1,1] over E/2" 4 (List.length qs)

let test_enum_contains_disconnected () =
  let qs = Cq_enum.feature_queries ~schema:[ ("U", 1) ] ~max_atoms:1 () in
  Alcotest.(check bool) "has U(y)" true
    (List.exists (fun c -> Cq.equivalent c (q "x :- U(y)")) qs)

let prop_enum_within_bounds =
  QCheck.Test.make ~name:"enumerated queries respect m and p" ~count:10
    (QCheck.pair (QCheck.int_range 1 2) (QCheck.int_range 1 2))
    (fun (m, p) ->
      let qs =
        Cq_enum.feature_queries ~max_var_occ:p
          ~schema:[ ("E", 2); ("U", 1) ]
          ~max_atoms:m ()
      in
      List.for_all
        (fun c -> Cq.num_atoms c <= m && Cq.max_var_occurrences c <= p)
        qs)

let test_dedupe_equivalent () =
  let qs = [ q "x :- E(x,y)"; q "x :- E(x,u)"; q "x :- E(x,y), E(x,z)" ] in
  Alcotest.(check int) "dedupe" 1 (List.length (Cq_enum.dedupe_equivalent qs))

(* Counts and the feature-list digest below were computed with the
   previous (string-rendering) canonical key; the integer key must give
   the same partition and keep the first-emitted representative. *)
let test_enum_golden_counts () =
  List.iter
    (fun (name, schema, m, expected) ->
      Alcotest.(check int) name expected (Cq_enum.count ~schema ~max_atoms:m ()))
    [
      ("{E/2,R/1} m=3", [ ("E", 2); ("R", 1) ], 3, 324);
      ("{E/2} m=4", [ ("E", 2) ], 4, 1036);
      ("{E/2,U/1,S/3} m=2", [ ("E", 2); ("U", 1); ("S", 3) ], 2, 775);
      ("{E/2,F/2} m=3", [ ("E", 2); ("F", 2) ], 3, 1281);
    ]

let feature_digest qs =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Cq.to_string qs)))

let test_enum_pinned_digest () =
  Alcotest.(check string)
    "order and representatives" "e5d3164d1dd35fd6c9ca27c90311be3a"
    (feature_digest
       (Cq_enum.feature_queries ~schema:[ ("E", 2); ("R", 1) ] ~max_atoms:3 ()))

(* --- feature memo ------------------------------------------------------ *)

let memo_schema = [ ("E", 2); ("R", 1) ]

let test_memo_fresh_equal () =
  let cached = Cq_enum.feature_queries ~schema:memo_schema ~max_atoms:2 () in
  Alcotest.(check bool) "second call shares the list" true
    (cached == Cq_enum.feature_queries ~schema:memo_schema ~max_atoms:2 ());
  Runtime_state.reset_caches ();
  let fresh = Cq_enum.feature_queries ~schema:memo_schema ~max_atoms:2 () in
  Alcotest.(check bool) "reset drops the entry" true (cached != fresh);
  Alcotest.(check bool) "same queries, same order" true
    (List.equal Cq.equal cached fresh)

let test_memo_abort_leaves_no_entry () =
  Runtime_state.reset_caches ();
  let schema = [ ("E", 2); ("F", 2) ] in
  (match
     Guard.run (Budget.make ~fuel:200 ()) (fun () ->
         Cq_enum.feature_queries ~schema ~max_atoms:3 ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "200 ticks cannot enumerate CQ[3] over {E/2,F/2}");
  Alcotest.(check (list string)) "registry valid" [] (Runtime_state.validate_all ());
  Alcotest.(check int) "full list after the abort" 1281
    (List.length (Cq_enum.feature_queries ~schema ~max_atoms:3 ()))

let test_memo_batch_reset () =
  Runtime_state.reset_caches ();
  let qs, b = Cq_enum.feature_batch ~schema:memo_schema ~max_atoms:2 () in
  Alcotest.(check bool) "the batch's list is the memoized list" true
    (qs == Cq_enum.feature_queries ~schema:memo_schema ~max_atoms:2 ());
  Alcotest.(check bool) "second call shares the batch" true
    (b == snd (Cq_enum.feature_batch ~schema:memo_schema ~max_atoms:2 ()));
  Runtime_state.reset_caches ();
  let qs', b' = Cq_enum.feature_batch ~schema:memo_schema ~max_atoms:2 () in
  Alcotest.(check bool) "reset drops the batch" true (b != b' && qs != qs')

(* The batch of CQ[3] over {E/2, R/1} on a small graph, against a
   pointed search per feature and entity. *)
let batch_is_complete qs b =
  let db = path_db 4 in
  let es = Array.of_list (Db.entities db) in
  let cols = Eval_engine.columns b db es in
  Array.length cols = List.length qs
  && List.for_all2
       (fun q col ->
         Array.for_all Fun.id
           (Array.mapi
              (fun i e -> Eval_engine.Column.mem col i = Cq.selects q db e)
              es))
       qs (Array.to_list cols)

let test_memo_batch_abort () =
  Runtime_state.reset_caches ();
  let schema = [ ("E", 2); ("R", 1) ] in
  let qs = Cq_enum.feature_queries ~schema ~max_atoms:3 () in
  (match
     Guard.run (Budget.make ~fuel:50 ()) (fun () ->
         Cq_enum.feature_batch ~schema ~max_atoms:3 ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "50 ticks cannot compile 324 features");
  Alcotest.(check (list string)) "registry valid" [] (Runtime_state.validate_all ());
  let qs', b = Cq_enum.feature_batch ~schema ~max_atoms:3 () in
  Alcotest.(check bool) "the list outlives the aborted compile" true (qs == qs');
  Alcotest.(check bool) "the next call compiles the whole batch" true
    (batch_is_complete qs b);
  Alcotest.(check bool) "and memoizes it" true
    (b == snd (Cq_enum.feature_batch ~schema ~max_atoms:3 ()))

let test_memo_schema_normalized () =
  let base = Cq_enum.feature_queries ~schema:memo_schema ~max_atoms:2 () in
  Alcotest.(check bool) "reordered schema hits" true
    (base == Cq_enum.feature_queries ~schema:[ ("R", 1); ("E", 2) ] ~max_atoms:2 ());
  Alcotest.(check bool) "schema with eta hits" true
    (base
    == Cq_enum.feature_queries
         ~schema:[ ("R", 1); (Db.entity_rel, 1); ("E", 2) ]
         ~max_atoms:2 ());
  Alcotest.(check bool) "other bounds miss" true
    (base != Cq_enum.feature_queries ~max_var_occ:2 ~schema:memo_schema ~max_atoms:2 ())

(* --- decompositions --------------------------------------------------- *)

let test_ghw_values () =
  Alcotest.(check int) "path" 1 (Cq_decomp.ghw (q "x :- E(x,y), E(y,z)"));
  Alcotest.(check int) "triangle detached" 2
    (Cq_decomp.ghw (q "x :- E(a,b), E(b,c), E(c,a)"));
  Alcotest.(check int) "triangle through x" 1
    (Cq_decomp.ghw (q "x :- E(x,b), E(b,c), E(c,x)"));
  Alcotest.(check int) "no existential vars" 0
    (Cq_decomp.ghw (q "x :- E(x,x)"));
  (* 4-cycle of existential vars: ghw 2 *)
  Alcotest.(check int) "C4" 2
    (Cq_decomp.ghw (q "x :- E(a,b), E(b,c), E(c,d), E(d,a)"))

let test_acyclicity () =
  Alcotest.(check bool) "path acyclic" true
    (Cq_decomp.is_free_acyclic (q "x :- E(x,y), E(y,z)"));
  Alcotest.(check bool) "triangle cyclic" false
    (Cq_decomp.is_free_acyclic (q "x :- E(a,b), E(b,c), E(c,a)"));
  Alcotest.(check bool) "triangle through x acyclic" true
    (Cq_decomp.is_free_acyclic (q "x :- E(x,b), E(b,c), E(c,x)"))

let prop_ghw_monotone =
  QCheck.Test.make ~name:"ghw_le monotone in k" ~count:20
    (spec_arb ~max_nodes:3 ~max_edges:4)
    (fun s ->
      let db = db_of_spec s in
      QCheck.assume (Db.domain_size db > 0 && Db.size db > 0);
      let e0 = List.hd (Elem.Set.elements (Db.domain db)) in
      let qq = Cq.of_pointed_db (db, e0) in
      let g = Cq_decomp.ghw qq in
      g <= max 1 (Cq.num_atoms qq)
      && (g = 0 || not (Cq_decomp.ghw_le qq (g - 1)))
      && Cq_decomp.ghw_le qq g
      && Cq_decomp.ghw_le qq (g + 1))

(* --- evaluation engines ------------------------------------------------ *)

let all_test_queries =
  lazy
    (Cq_enum.feature_queries ~schema:[ ("E", 2); ("U", 1) ] ~max_atoms:3 ())

let prop_engines_agree =
  QCheck.Test.make ~name:"hom, yannakakis and ghw engines agree" ~count:40
    (QCheck.pair (spec_arb ~max_nodes:4 ~max_edges:6) (QCheck.int_range 0 5000))
    (fun (s, qi) ->
      let db = db_of_spec s in
      let qs = Lazy.force all_test_queries in
      let qq = List.nth qs (qi mod List.length qs) in
      let reference =
        List.sort Elem.compare (Cq.eval qq db)
      in
      let via_engine =
        List.sort Elem.compare (Eval_engine.eval qq db)
      in
      let acyclic_ok =
        match Join_tree.build qq with
        | None -> true
        | Some _ ->
            List.sort Elem.compare (Join_tree.eval qq db) = reference
      in
      let ghw_ok =
        match Ghw_eval.eval ~k:2 qq db with
        | None -> true
        | Some res -> List.sort Elem.compare res = reference
      in
      via_engine = reference && acyclic_ok && ghw_ok)

(* The compiled decomposition engine against hom search and against
   [Ghw_eval.eval ~k:2]. Databases draw their elements from a pool that
   mixes [Sym], [Int] and [Tup] elements, [Int 1] and [Sym "1"] among
   them, and only some of the elements are entities. Queries are either
   one of a fixed list of cyclic shapes — triangles and 4-cycles with x
   on and off the cycle, repeated variables, x-only and nullary atoms,
   Boolean cycles, 4- and 5-cycles whose width-2 bags are covered by
   disjoint atoms — or random atoms over E, U and N. A query that plans
   to a decomposition is also run twice on one pass, the second time
   on the id rows the first one cached. *)
let mixed_pool =
  let open Elem in
  [|
    Int 1; Sym "1"; Sym "a"; Int 2; Tup [ Int 1; Sym "1" ]; Tup [ Sym "1"; Int 1 ];
    Sym "b"; Int 0; Tup [];
  |]

let cyclic_shapes =
  let v = Elem.sym and x = Cq.default_free in
  let e a b = Fact.make_l "E" [ a; b ] and u a = Fact.make_l "U" [ a ] in
  let y = v "y" and z = v "z" and w = v "w" and t = v "t" in
  let tri a b c = [ e a b; e b c; e c a ] in
  [
    tri x y z;
    e x y :: tri y z w;
    u x :: tri y z w;
    tri y z w;
    [ e x y; e y z; e z w; e w x ];
    e x y :: [ e y z; e z w; e w t; e t y ];
    [ e y z; e z w; e w t; e t y ];
    e y y :: tri x y z;
    e x x :: u x :: tri x y z;
    Fact.make "N" [||] :: tri x y z;
    Fact.make "N" [||] :: tri y z w;
    [ e x y; e y z; e z w; e w t; e t x ];
    [ e x y; e y x; e y z; e z y; e z x ];
    tri x y z @ tri x z w;
  ]

let random_query_gen =
  let open QCheck.Gen in
  let var = oneofl (List.map Elem.sym [ "x"; "y"; "z"; "w"; "t" ]) in
  let atom =
    frequency
      [
        (6, map2 (fun a b -> Fact.make_l "E" [ a; b ]) var var);
        (2, map (fun a -> Fact.make_l "U" [ a ]) var);
        (1, return (Fact.make "N" [||]));
      ]
  in
  oneof
    [
      map (List.nth cyclic_shapes) (int_bound (List.length cyclic_shapes - 1));
      list_size (int_range 2 6) atom;
    ]

let mixed_db_gen =
  let open QCheck.Gen in
  let n = Array.length mixed_pool in
  let elem = map (Array.get mixed_pool) (int_bound (n - 1)) in
  list_size (int_range 0 16) (pair elem elem) >>= fun edges ->
  list_size (int_range 0 4) elem >>= fun unary ->
  list_size (int_range 0 n) elem >>= fun entities ->
  bool >>= fun nullary ->
  return
    (Db.of_facts
       ((if nullary then [ Fact.make "N" [||] ] else [])
       @ List.map (fun (a, b) -> Fact.make_l "E" [ a; b ]) edges
       @ List.map (fun a -> Fact.make_l "U" [ a ]) unary
       @ List.map (fun a -> Fact.make Db.entity_rel [| a |]) entities))

let prop_decomposed_agrees =
  QCheck.Test.make ~name:"compiled decomposition agrees with hom search and ghw k=2"
    ~count:400
    (QCheck.make
       ~print:(fun (atoms, db) ->
         String.concat ", " (List.map Fact.to_string atoms)
         ^ " over " ^ String.concat " " (List.map Fact.to_string (Db.facts db)))
       (QCheck.Gen.pair random_query_gen mixed_db_gen))
    (fun (atoms, db) ->
      let qq = Cq.make ~free:Cq.default_free atoms in
      let sorted l = List.sort Elem.compare l in
      let same a b = List.equal Elem.equal (sorted a) b in
      let reference = sorted (Cq.eval qq db) in
      same (Eval_engine.eval qq db) reference
      && (match Ghw_eval.eval ~k:2 qq db with None -> true | Some r -> same r reference)
      &&
      match Eval_engine.plan qq with
      | Eval_engine.Decomposed p ->
          let rels = Atom_rels.create db in
          same (Ghw_eval.run rels p) reference && same (Ghw_eval.run rels p) reference
      | _ -> true)

(* The id view numbers the elements of the rows asked for, not the
   whole domain, and decodes back to the [Elem.t] rows. *)
let test_id_view_numbers_rows_asked () =
  let e a b = Fact.make_l "E" [ Elem.sym a; Elem.sym b ] in
  let pad = List.init 100 (fun i -> Fact.make_l "P" [ Elem.int i ]) in
  let db = Db.of_facts ([ e "a" "b"; e "b" "c"; e "c" "a" ] @ pad) in
  let rels = Atom_rels.create db in
  let edge = Fact.make_l "E" [ Elem.sym "x"; Elem.sym "y" ] in
  let decoded = List.map (Array.map (Atom_rels.elem_of_id rels)) (Atom_rels.id_rows rels edge) in
  Alcotest.(check int) "only E's elements numbered" 3 (Atom_rels.id_count rels);
  Alcotest.(check bool) "id rows decode to the rows" true
    (List.equal (Array.for_all2 Elem.equal) decoded (Atom_rels.rows rels edge));
  ignore (Atom_rels.id_rows rels (Fact.make_l "P" [ Elem.sym "x" ]));
  Alcotest.(check int) "P's elements numbered on request" 103 (Atom_rels.id_count rels)

let test_cyclic_shapes_decomposed () =
  List.iter
    (fun atoms ->
      let qq = Cq.make ~free:Cq.default_free atoms in
      Alcotest.(check string)
        (String.concat ", " (List.map Fact.to_string atoms))
        "ghw-decomposition"
        (Eval_engine.plan_kind_name (Eval_engine.plan qq)))
    cyclic_shapes

let test_join_tree_shapes () =
  Alcotest.(check bool) "path query acyclic" true
    (Join_tree.is_acyclic (q "x :- E(x,y), E(y,z)"));
  Alcotest.(check bool) "triangle not acyclic" false
    (Join_tree.is_acyclic (q "x :- E(x,y), E(y,z), E(z,x)"));
  Alcotest.(check bool) "disconnected acyclic" true
    (Join_tree.is_acyclic (q "x :- U(y), E(z,w)"))

let test_yannakakis_eval () =
  let db = path_db 4 in
  let q2 = q "x :- E(x,y), E(y,z)" in
  Alcotest.(check (list string))
    "matches hom search"
    (List.map Elem.to_string (List.sort Elem.compare (Cq.eval q2 db)))
    (List.map Elem.to_string (List.sort Elem.compare (Join_tree.eval q2 db)))

let test_decomposition_witness () =
  let tri = q "x :- E(a,b), E(b,c), E(c,a)" in
  (match Cq_decomp.decomposition tri ~k:1 with
  | Some _ -> Alcotest.fail "triangle has no width-1 decomposition"
  | None -> ());
  match Cq_decomp.decomposition tri ~k:2 with
  | None -> Alcotest.fail "triangle has width 2"
  | Some forest ->
      Alcotest.(check bool) "valid decomposition" true
        (Cq_decomp.check_decomposition tri ~k:2 forest)

let prop_decomposition_always_valid =
  QCheck.Test.make ~name:"extracted decompositions verify" ~count:30
    (QCheck.int_range 0 5000)
    (fun qi ->
      let qs = Lazy.force all_test_queries in
      let qq = List.nth qs (qi mod List.length qs) in
      match Cq_decomp.decomposition qq ~k:1 with
      | Some forest -> Cq_decomp.check_decomposition qq ~k:1 forest
      | None -> Cq_decomp.ghw qq > 1)

let test_engine_planning () =
  let plan_name qq = Eval_engine.plan_kind_name (Eval_engine.plan qq) in
  Alcotest.(check string) "path planned acyclic" "yannakakis"
    (plan_name (q "x :- E(x,y), E(y,z)"));
  Alcotest.(check string) "triangle planned decomposed" "ghw-decomposition"
    (plan_name (q "x :- E(a,b), E(b,c), E(c,a)"))

(* A depth-2 unraveling of a small random graph has 581 atoms, so it
   plans to hom search. Its column over a 40-node graph must come back
   within a million ticks of fuel, and every entity it selects must
   have a homomorphism witness. *)
let test_unraveled_feature_under_fuel () =
  let g = Gen_db.random_graph_db ~seed:3 ~nodes:6 ~edges:12 () in
  let feature = Unravel.unravel ~k:1 ~depth:2 (g, List.hd (Db.entities g)) in
  Alcotest.(check int) "atoms" 581 (Cq.num_atoms feature);
  Alcotest.(check string) "planned to hom search" "hom-search"
    (Eval_engine.plan_kind_name (Eval_engine.plan feature));
  let db = Gen_db.random_graph_db ~seed:7 ~nodes:40 ~edges:80 () in
  match
    Guard.run (Budget.make ~fuel:1_000_000 ()) (fun () ->
        Eval_engine.eval feature db)
  with
  | Error f -> Alcotest.fail (Guard.failure_to_string f)
  | Ok selected ->
      Alcotest.(check bool) "selects some entity" true (selected <> []);
      let src = Cq.canonical feature in
      List.iter
        (fun f ->
          match Hom.find ~fix:[ (Cq.free feature, f) ] ~src ~dst:db () with
          | Some h ->
              Alcotest.(check bool) "witness is a hom" true
                (Hom.is_hom h ~src ~dst:db)
          | None -> Alcotest.fail ("no witness for " ^ Elem.to_string f))
        selected

let test_parse_errors () =
  let bad s =
    match Cq_parse.parse s with
    | exception Cq_parse.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  bad "";
  bad "x :- E(x";
  bad "x : E(x,y)";
  bad "x :- E(x,y) E(y,z)";
  bad ":- E(x,y)"

let () =
  Alcotest.run "cq"
    [
      ( "eval",
        [
          Alcotest.test_case "path" `Quick test_eval_path;
          Alcotest.test_case "empty body" `Quick test_eval_empty_body;
          Alcotest.test_case "disconnected" `Quick test_eval_disconnected;
          Alcotest.test_case "entity required" `Quick test_selects_requires_entity;
          Alcotest.test_case "counting" `Quick test_counting;
        ] );
      ( "containment",
        [
          Alcotest.test_case "paths" `Quick test_containment;
          Alcotest.test_case "folding" `Quick test_containment_fold;
        ] );
      ( "core",
        [
          Alcotest.test_case "redundant atom" `Quick test_core_redundant_atom;
          Alcotest.test_case "keeps needed" `Quick test_core_keeps_needed;
          qcheck prop_core_equivalent;
          qcheck prop_core_idempotent;
        ] );
      ( "conjoin",
        [
          Alcotest.test_case "conjoin_all" `Quick test_conjoin_all;
          qcheck prop_conjoin_semantics;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "iso canonical" `Quick test_iso_canonical;
          qcheck prop_iso_key_exact;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "counts unary" `Quick test_enum_counts_unary;
          Alcotest.test_case "counts binary" `Quick test_enum_counts_binary;
          Alcotest.test_case "var occurrences" `Quick test_enum_var_occurrence_restriction;
          Alcotest.test_case "disconnected atoms" `Quick test_enum_contains_disconnected;
          Alcotest.test_case "dedupe equivalent" `Quick test_dedupe_equivalent;
          qcheck prop_enum_within_bounds;
          Alcotest.test_case "golden counts" `Quick test_enum_golden_counts;
          Alcotest.test_case "pinned digest" `Quick test_enum_pinned_digest;
        ] );
      ( "feature memo",
        [
          Alcotest.test_case "cached = fresh" `Quick test_memo_fresh_equal;
          Alcotest.test_case "abort leaves no entry" `Quick
            test_memo_abort_leaves_no_entry;
          Alcotest.test_case "schema normalized" `Quick test_memo_schema_normalized;
          Alcotest.test_case "batch dropped by reset" `Quick test_memo_batch_reset;
          Alcotest.test_case "aborted compile leaves no batch" `Quick
            test_memo_batch_abort;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "ghw values" `Quick test_ghw_values;
          Alcotest.test_case "acyclicity" `Quick test_acyclicity;
          Alcotest.test_case "witness extraction" `Quick test_decomposition_witness;
          qcheck prop_ghw_monotone;
          qcheck prop_decomposition_always_valid;
        ] );
      ( "evaluation engines",
        [
          Alcotest.test_case "join tree shapes" `Quick test_join_tree_shapes;
          Alcotest.test_case "yannakakis" `Quick test_yannakakis_eval;
          Alcotest.test_case "planning" `Quick test_engine_planning;
          Alcotest.test_case "unraveled feature under fuel" `Quick
            test_unraveled_feature_under_fuel;
          qcheck prop_engines_agree;
          Alcotest.test_case "cyclic shapes plan to a decomposition" `Quick
            test_cyclic_shapes_decomposed;
          qcheck prop_decomposed_agrees;
          Alcotest.test_case "id view numbers only the rows asked for" `Quick
            test_id_view_numbers_rows_asked;
        ] );
    ]
