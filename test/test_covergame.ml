(* Tests for the existential k-cover game and the unravelings. *)

open Test_util

let edge a b = ("E", [ sym a; sym b ])

let c3 = Db.of_list [ edge "a" "b"; edge "b" "c"; edge "c" "a" ]
let c2 = Db.of_list [ edge "u" "v"; edge "v" "u" ]

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

let test_cycles () =
  check bool_c "C3 ->_1 C2" true (Cover_game.boolean ~k:1 c3 c2);
  (* two facts of C3 already cover all three vertices *)
  check bool_c "C3 -/->_2 C2" false (Cover_game.boolean ~k:2 c3 c2);
  (* In C2 a single fact covers both vertices, so even one pebbled
     fact forces a genuine hom: C2 -/->_1 C3. *)
  check bool_c "C2 -/->_1 C3" false (Cover_game.boolean ~k:1 c2 c3);
  (* A long even cycle is locally path-like: C6 ->_1 C3 (and a real
     hom exists too by wrapping twice). *)
  let c6 =
    Db.of_list
      (List.init 6 (fun i ->
           edge (Printf.sprintf "w%d" i) (Printf.sprintf "w%d" ((i + 1) mod 6))))
  in
  check bool_c "C6 ->_1 C3" true (Cover_game.boolean ~k:1 c6 c3);
  check bool_c "C6 ->_1 C2" true (Cover_game.boolean ~k:1 c6 c2);
  (* An even cycle folds onto C2, so even the full-pebble game
     succeeds. *)
  check bool_c "C6 ->_6 C2" true (Cover_game.boolean ~k:6 c6 c2)

let test_paths_pointed () =
  let p = path_db 5 in
  let v i = sym (Printf.sprintf "v%d" i) in
  (* Spoiler walks the forward path: start vertices with longer
     forward paths do not ->_1 later vertices. *)
  check bool_c "v0 -/->_1 v1" false
    (Cover_game.holds1 ~k:1 (p, v 0) (p, v 1));
  (* v1 has an incoming edge, v0 does not. *)
  check bool_c "v1 -/->_1 v0" false
    (Cover_game.holds1 ~k:1 (p, v 1) (p, v 0));
  check bool_c "reflexive" true (Cover_game.holds1 ~k:1 (p, v 2) (p, v 2));
  (* On an infinite-looking middle the game cannot tell v2 from v3?
     both have in/out paths of length >= 2 but v2's forward path is
     longer; Spoiler wins by walking. *)
  check bool_c "v2 -/->_1 v3" false
    (Cover_game.holds1 ~k:1 (p, v 2) (p, v 3))

let test_loop_absorbs () =
  (* With a self-loop at the end, forward walks never fail: the loop
     absorbs. v0 has the longest forward path, so v0 ->_1 v_i for all
     i should hold iff every GHW(1) query at v0 holds at v_i; the
     in-path direction still distinguishes. *)
  let chain = Families.linear_chain 4 in
  let v i = sym (Printf.sprintf "v%d" i) in
  check bool_c "v2 ->_1 v1 fails (in-path)" false
    (Cover_game.holds1 ~k:1 (chain, v 2) (chain, v 1));
  check bool_c "v1 ->_1 v2" true
    (Cover_game.holds1 ~k:1 (chain, v 1) (chain, v 2))

let prop_hom_implies_game =
  QCheck.Test.make ~name:"-> implies ->_k" ~count:40
    (QCheck.pair (spec_arb ~max_nodes:3 ~max_edges:4)
       (spec_arb ~max_nodes:3 ~max_edges:4))
    (fun (sa, sb) ->
      let a = db_of_spec sa and b = db_of_spec sb in
      QCheck.assume (Hom.exists ~src:a ~dst:b ());
      Cover_game.boolean ~k:1 a b && Cover_game.boolean ~k:2 a b)

let prop_game_monotone_in_k =
  QCheck.Test.make ~name:"->_{k+1} implies ->_k" ~count:40
    (QCheck.pair (spec_arb ~max_nodes:3 ~max_edges:4)
       (spec_arb ~max_nodes:3 ~max_edges:4))
    (fun (sa, sb) ->
      let a = db_of_spec sa and b = db_of_spec sb in
      (not (Cover_game.boolean ~k:2 a b)) || Cover_game.boolean ~k:1 a b)

let prop_game_large_k_is_hom =
  QCheck.Test.make ~name:"->_k = -> when k covers everything" ~count:30
    (QCheck.pair (spec_arb ~max_nodes:3 ~max_edges:3)
       (spec_arb ~max_nodes:3 ~max_edges:3))
    (fun (sa, sb) ->
      let a = db_of_spec sa and b = db_of_spec sb in
      let k = max 1 (Db.size a) in
      Cover_game.boolean ~k a b = Hom.exists ~src:a ~dst:b ())

let prop_game_reflexive_transitive =
  QCheck.Test.make ~name:"->_k preorder on entities" ~count:25
    (spec_arb ~max_nodes:4 ~max_edges:5)
    (fun s ->
      let d = db_of_spec s in
      let ents = Db.entities d in
      QCheck.assume (ents <> []);
      let m = Cover_game.preorder ~k:1 d ents in
      let n = List.length ents in
      let ok = ref true in
      for i = 0 to n - 1 do
        if not m.(i).(i) then ok := false;
        for j = 0 to n - 1 do
          for l = 0 to n - 1 do
            if m.(i).(j) && m.(j).(l) && not m.(i).(l) then ok := false
          done
        done
      done;
      !ok)

let prop_preorder_matches_holds1 =
  QCheck.Test.make ~name:"preorder matrix = pairwise holds1" ~count:20
    (spec_arb ~max_nodes:3 ~max_edges:4)
    (fun s ->
      let d = db_of_spec s in
      let ents = Db.entities d in
      QCheck.assume (ents <> []);
      let m = Cover_game.preorder ~k:1 d ents in
      let arr = Array.of_list ents in
      let ok = ref true in
      Array.iteri
        (fun i ei ->
          Array.iteri
            (fun j ej ->
              if m.(i).(j) <> Cover_game.holds1 ~k:1 (d, ei) (d, ej) then
                ok := false)
            arr)
        arr;
      !ok)

(* One context answers many pinned queries: every answer must equal a
   fresh game's, whatever the order of the queries, so no state may
   leak from one pinned query into the next. *)
let prop_shared_context_matches_fresh =
  QCheck.Test.make ~name:"shared context = fresh game per pin" ~count:30
    (QCheck.triple
       (spec_arb ~max_nodes:4 ~max_edges:5)
       (spec_arb ~max_nodes:4 ~max_edges:5)
       QCheck.int)
    (fun (sa, sb, seed) ->
      let d = db_of_spec sa and d' = db_of_spec sb in
      let pairs =
        List.concat_map
          (fun a -> List.map (fun b -> (a, b)) (Db.entities d'))
          (Db.entities d)
      in
      let pairs =
        QCheck.Gen.shuffle_l pairs (Random.State.make [| seed |])
      in
      let ctx = Cover_game.make_context ~k:1 d d' in
      List.for_all
        (fun (a, b) ->
          Cover_game.holds_ctx ctx ~pin:[ (a, b) ]
          = Cover_game.holds1 ~k:1 (d, a) (d', b))
        pairs)

(* --- pinned queries against the filter-everything reference ----------- *)

(* A database over a unary U, a binary E and a ternary T, with only
   some elements entities. Facts are (relation, argument indices). *)
type game_spec = {
  gnodes : int;
  gfacts : (string * int list) list;
  ents : int list;
}

let game_db s =
  List.fold_left
    (fun db i -> Db.add_entity (e i) db)
    (Db.of_list (List.map (fun (r, args) -> (r, List.map e args)) s.gfacts))
    s.ents

let game_spec_gen ~max_facts =
  let open QCheck.Gen in
  int_range 1 4 >>= fun gnodes ->
  let node = int_range 0 (gnodes - 1) in
  let fact =
    oneofl [ ("U", 1); ("E", 2); ("T", 3) ] >>= fun (r, arity) ->
    list_repeat arity node >>= fun args -> return (r, args)
  in
  list_size (int_range 1 max_facts) fact >>= fun gfacts ->
  list_size (int_range 0 gnodes) node >>= fun ents ->
  return { gnodes; gfacts; ents }

let game_spec_print s =
  Printf.sprintf "{nodes=%d; facts=[%s]; ents=[%s]}" s.gnodes
    (String.concat ";"
       (List.map
          (fun (r, args) ->
            Printf.sprintf "%s(%s)" r
              (String.concat "," (List.map string_of_int args)))
          s.gfacts))
    (String.concat ";" (List.map string_of_int s.ents))

(* A query instance: k, d, d' (None: d' is d itself) and a list of pins
   of zero to two pairs, in random order. Pinned elements range over
   e0..e4 and "z", so some are non-entities or outside dom d; drawing
   two pairs on one element gives inconsistent pins. *)
type game_case = {
  k : int;
  src : game_spec;
  dst : game_spec option;
  pins : (int * int) list list;
}

let pin_elem i = if i = 5 then sym "z" else e i

let game_case_arb =
  let open QCheck.Gen in
  let gen =
    int_range 1 2 >>= fun k ->
    let max_facts = if k = 1 then 5 else 3 in
    game_spec_gen ~max_facts >>= fun src ->
    opt (game_spec_gen ~max_facts) >>= fun dst ->
    let pair = pair (int_range 0 5) (int_range 0 5) in
    list_size (int_range 1 12) (list_size (int_range 0 2) pair) >>= fun pins ->
    return { k; src; dst; pins }
  in
  let print c =
    Printf.sprintf "k=%d d=%s d'=%s pins=[%s]" c.k (game_spec_print c.src)
      (match c.dst with None -> "d" | Some s -> game_spec_print s)
      (String.concat "; "
         (List.map
            (fun p ->
              String.concat ","
                (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) p))
            c.pins))
  in
  QCheck.make ~print gen

let case_dbs c =
  let d = game_db c.src in
  (d, match c.dst with None -> d | Some s -> game_db s)

let case_pins c =
  List.map (List.map (fun (a, b) -> (pin_elem a, pin_elem b))) c.pins

(* The seeded, indexed [holds_ctx] answers every pin as the reference
   does, with the queries asked in random order on one shared context
   and then asked again in reverse order, when every pin domain's index
   is already built. *)
let prop_holds_ctx_matches_reference =
  QCheck.Test.make ~name:"holds_ctx = filter-everything reference" ~count:150
    game_case_arb
    (fun c ->
      let d, d' = case_dbs c in
      let ctx = Cover_game.make_context ~k:c.k d d' in
      let rctx = Cover_game_ref.make_context ~k:c.k d d' in
      let pins = case_pins c in
      let expected =
        List.map (fun pin -> Cover_game_ref.holds_ctx rctx ~pin) pins
      in
      List.map (fun pin -> Cover_game.holds_ctx ctx ~pin) pins = expected
      && List.rev_map (fun pin -> Cover_game.holds_ctx ctx ~pin) (List.rev pins)
         = expected)

(* A pin only removes Duplicator options: adding a pinned pair never
   turns a lost game into a won one. *)
let prop_pin_monotone =
  QCheck.Test.make ~name:"adding a pin never turns false into true" ~count:150
    game_case_arb
    (fun c ->
      let d, d' = case_dbs c in
      let ctx = Cover_game.make_context ~k:c.k d d' in
      let unpinned = Cover_game.holds_ctx ctx ~pin:[] in
      List.for_all
        (fun pin ->
          match pin with
          | [] -> true
          | _ :: rest ->
              (not (Cover_game.holds_ctx ctx ~pin))
              || (Cover_game.holds_ctx ctx ~pin:rest && unpinned))
        (case_pins c))

(* Prop 5.2 (one direction made effective): for a query of ghw <= k,
   membership via homomorphism equals membership via the game on the
   canonical database. *)
let prop_52_eval_equals_game =
  QCheck.Test.make ~name:"Prop 5.2: eval = game for ghw<=k queries"
    ~count:25
    (QCheck.pair (spec_arb ~max_nodes:3 ~max_edges:4) (QCheck.int_range 0 20))
    (fun (s, qi) ->
      let db = db_of_spec s in
      QCheck.assume (Db.entities db <> []);
      let qs =
        Cq_enum.feature_queries ~schema:[ ("E", 2); ("U", 1) ] ~max_atoms:2 ()
      in
      let qq = List.nth qs (qi mod List.length qs) in
      let k = max 1 (Cq_decomp.ghw qq) in
      List.for_all
        (fun e ->
          Cq.selects qq db e
          = Cover_game.holds1 ~k (Cq.canonical qq, Cq.free qq) (db, e))
        (Db.entities db))

let test_equiv_classes () =
  (* On a cycle every vertex looks alike: one class. *)
  let c = Families.cycle 4 in
  Alcotest.(check int) "cycle classes" 1
    (List.length (Cover_game.equiv_classes ~k:1 c (Db.entities c)));
  (* On a path all vertices differ. *)
  let p = path_db 3 in
  Alcotest.(check int) "path classes" 4
    (List.length (Cover_game.equiv_classes ~k:1 p (Db.entities p)))

let test_invalid_k () =
  match Cover_game.holds1 ~k:0 (c3, sym "a") (c2, sym "u") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 must be rejected"

(* --- unravelings ------------------------------------------------------ *)

let test_unravel_selects_origin () =
  let p = path_db 3 in
  let v i = sym (Printf.sprintf "v%d" i) in
  List.iter
    (fun depth ->
      let u = Unravel.unravel ~k:1 ~depth (p, v 1) in
      check bool_c
        (Printf.sprintf "origin selected at depth %d" depth)
        true (Cq.selects u p (v 1)))
    [ 0; 1; 2 ]

let test_unravel_ghw_bound () =
  let p = path_db 2 in
  let u = Unravel.unravel ~k:1 ~depth:1 (p, sym "v0") in
  check bool_c "unraveling has ghw <= 1" true (Cq_decomp.ghw_le u 1)

let test_unravel_matches_game () =
  (* On a short path with few covered sets, a modest depth suffices for
     the unraveling to characterize ->_1 between entities. *)
  let p = path_db 2 in
  let v i = sym (Printf.sprintf "v%d" i) in
  let q1, _depth = Unravel.stable_unravel ~k:1 ~max_depth:4 (p, v 1) in
  List.iter
    (fun j ->
      check bool_c
        (Printf.sprintf "q_v1 selects v%d iff v1 ->_1 v%d" j j)
        (Cover_game.holds1 ~k:1 (p, v 1) (p, v j))
        (Cq.selects q1 p (v j)))
    [ 0; 1; 2 ]

let test_node_count () =
  let p = path_db 2 in
  let n1 = Unravel.node_count ~k:1 ~depth:1 p in
  let n2 = Unravel.node_count ~k:1 ~depth:2 p in
  check bool_c "node count grows superlinearly" true (n2 > 2 * n1)

let prop_pruning_preserves_preorder =
  QCheck.Test.make
    ~name:"transitivity pruning does not change the preorder" ~count:15
    (spec_arb ~max_nodes:4 ~max_edges:5)
    (fun s ->
      let d = db_of_spec s in
      let ents = Db.entities d in
      QCheck.assume (ents <> []);
      Cover_game.preorder ~k:1 d ents
      = Cover_game.preorder ~transitive_pruning:false ~k:1 d ents)

let prop_unravel_monotone_depth =
  QCheck.Test.make
    ~name:"deeper unravelings are contained in shallower ones" ~count:10
    (spec_arb ~max_nodes:3 ~max_edges:3)
    (fun s ->
      let d = db_of_spec s in
      QCheck.assume (Db.entities d <> []);
      let e = List.hd (Db.entities d) in
      let q1 = Unravel.unravel ~k:1 ~depth:1 (d, e) in
      let q2 = Unravel.unravel ~k:1 ~depth:2 (d, e) in
      Cq.contained_in q2 q1)

let () =
  Alcotest.run "covergame"
    [
      ( "game",
        [
          Alcotest.test_case "cycles" `Quick test_cycles;
          Alcotest.test_case "paths pointed" `Quick test_paths_pointed;
          Alcotest.test_case "loop absorbs" `Quick test_loop_absorbs;
          Alcotest.test_case "equiv classes" `Quick test_equiv_classes;
          Alcotest.test_case "invalid k" `Quick test_invalid_k;
          qcheck prop_hom_implies_game;
          qcheck prop_game_monotone_in_k;
          qcheck prop_game_large_k_is_hom;
          qcheck prop_game_reflexive_transitive;
          qcheck prop_preorder_matches_holds1;
          qcheck prop_shared_context_matches_fresh;
          qcheck prop_holds_ctx_matches_reference;
          qcheck prop_pin_monotone;
          qcheck prop_52_eval_equals_game;
          qcheck prop_pruning_preserves_preorder;
        ] );
      ( "unravel",
        [
          Alcotest.test_case "selects origin" `Quick test_unravel_selects_origin;
          Alcotest.test_case "ghw bound" `Quick test_unravel_ghw_bound;
          Alcotest.test_case "matches game" `Quick test_unravel_matches_game;
          Alcotest.test_case "node count" `Quick test_node_count;
          qcheck prop_unravel_monotone_depth;
        ] );
    ]
