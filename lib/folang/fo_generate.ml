(* The diagram formula of a pointed database, relative to the
   database's own schema: on any database over the same relation
   symbols it holds exactly at the points isomorphic to the original
   one. (Extra relations in the evaluated database are invisible to
   the formula — feature generation always happens within one
   schema.) *)

let var_of e a =
  if Elem.equal a e then Cq.default_free else Elem.tup [ Elem.sym "d"; a ]

let rec tuples_of arity dom =
  if arity = 0 then [ [] ]
  else begin
    let shorter = tuples_of (arity - 1) dom in
    List.concat_map
      (fun d ->
        Budget.tick ~what:"FO diagram: tuple enumeration" ();
        List.map (fun t -> d :: t) shorter)
      dom
  end

let diagram_formula (db, e) =
  let dom = Elem.Set.elements (Db.domain db) in
  let v = var_of e in
  let others = List.filter (fun a -> not (Elem.equal a e)) dom in
  (* 1. pairwise distinctness *)
  (* cqlint: allow R1 — pairwise scan bounded by the domain size *)
  let rec distinct = function
    | [] -> []
    | a :: rest ->
        List.map (fun b -> Fo_formula.Not (Fo_formula.Eq (v a, v b))) rest
        @ distinct rest
  in
  (* 2. all present facts *)
  let present =
    List.map
      (fun f -> Fo_formula.Atom (Fact.map_elems v f))
      (Db.facts db)
  in
  (* 3. all absent facts over the schema *)
  let absent =
    List.concat_map
      (fun (rel, arity) ->
        List.filter_map
          (fun tuple ->
            let fact = Fact.make_l rel tuple in
            if Db.mem fact db then None
            else
              Some (Fo_formula.Not (Fo_formula.Atom (Fact.map_elems v fact))))
          (tuples_of arity dom))
      (Db.relations db)
  in
  (* 4. domain closure *)
  let z = Elem.sym "z_closure" in
  let closure =
    Fo_formula.Forall
      (z, Fo_formula.Or (List.map (fun a -> Fo_formula.Eq (z, v a)) dom))
  in
  let body =
    Fo_formula.And (distinct dom @ present @ absent @ [ closure ])
  in
  List.fold_left
    (fun acc a -> Fo_formula.Exists (v a, acc))
    body others

let generate (t : Labeling.training) =
  if not (Fo_sep.fo_separable t) then None
  else begin
    (* representatives of the isomorphism classes of positive entities *)
    let pos_reps =
      List.fold_left
        (fun reps e ->
          if
            List.exists
              (fun r -> Struct_iso.isomorphic_pointed (t.db, [ r ]) (t.db, [ e ]))
              reps
          then reps
          else e :: reps)
        []
        (Labeling.positives t.labeling)
    in
    Some
      (Fo_formula.Or
         (List.map (fun r -> diagram_formula (t.db, r)) pos_reps))
  end

let classify_with_formula (t : Labeling.training) eval_db =
  match generate t with
  | None ->
      invalid_arg
        "Fo_generate.classify_with_formula: training is not FO-separable"
  | Some phi ->
      List.fold_left
        (fun acc f ->
          let label =
            if Fo_formula.selects eval_db ~free:Cq.default_free phi f then
              Labeling.Pos
            else Labeling.Neg
          in
          Labeling.set f label acc)
        Labeling.empty (Db.entities eval_db)
