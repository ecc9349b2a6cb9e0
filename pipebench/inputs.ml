type instance = { train_text : string; heldout_text : string; noisy : bool }

let planted3 = Cq_parse.parse "x :- E(x,y), E(y,z), R(z)"
let planted2 = Cq_parse.parse "x :- E(x,y), R(y)"

(* Distinct streams per (seed, instance, role); Gen_db seeds its own
   generator from the integer alone, and [typed_graph] uses [s] and
   [s + 1], hence the stride of 2 between roles. *)
let sub_seed ~seed i role = (((seed * 1_000_003) + i) * 8) + (2 * role)

let typed_graph ~seed ~nodes ~edges ~unary =
  let e =
    Gen_db.random_db ~seed ~schema:[ ("E", 2) ] ~domain_size:nodes
      ~facts_per_rel:edges ()
  in
  let r =
    Gen_db.random_db ~seed:(seed + 1) ~schema:[ ("R", 1) ] ~domain_size:nodes
      ~facts_per_rel:unary ()
  in
  List.fold_left
    (fun db i -> Db.add_entity (Elem.sym (Printf.sprintf "v%d" i)) db)
    (Db.union e r)
    (List.init nodes Fun.id)

(* Close the graph under R(v) <-> E(v,v). *)
let loops_marked db =
  List.fold_left
    (fun db f ->
      match (Fact.rel f, Fact.args f) with
      | "R", [| v |] -> Db.add (Fact.make_l "E" [ v; v ]) db
      | "E", [| a; b |] when Elem.equal a b -> Db.add (Fact.make_l "R" [ a ]) db
      | _ -> db)
    db (Db.facts db)

let cqm_instance ~seed i =
  let graph role = typed_graph ~seed:(sub_seed ~seed i role) ~nodes:20 ~edges:30 ~unary:7 in
  let train = Families.copies (Planted.label_by_query (graph 0) planted3) 2 in
  let noisy = i mod 5 = 4 in
  let train =
    if noisy then Planted.flip_labels ~seed:(sub_seed ~seed i 2) ~count:3 train
    else train
  in
  {
    train_text = Textfmt.print_training train;
    heldout_text = Textfmt.print_training (Planted.label_by_query (graph 1) planted3);
    noisy;
  }

let structural_instance ~seed i =
  let graph role = typed_graph ~seed:(sub_seed ~seed i role) ~nodes:12 ~edges:24 ~unary:8 in
  {
    train_text = Textfmt.print_training (Planted.label_by_query (graph 0) planted3);
    heldout_text = Textfmt.print_training (Planted.label_by_query (graph 1) planted3);
    noisy = false;
  }

let serving ~models ~seed =
  let graph i role ~nodes =
    loops_marked
      (typed_graph ~seed:(sub_seed ~seed i role) ~nodes ~edges:(nodes * 3 / 2)
         ~unary:(nodes / 3))
  in
  ( Array.init models (fun k ->
        Textfmt.print_training (Planted.label_by_query (graph k 0 ~nodes:40) planted2)),
    Textfmt.print_training (Planted.label_by_query (graph 0 1 ~nodes:400) planted2) )
