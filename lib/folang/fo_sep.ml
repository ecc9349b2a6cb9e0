let opposite_pairs (t : Labeling.training) =
  let pos = Labeling.positives t.labeling in
  let neg = Labeling.negatives t.labeling in
  List.concat_map (fun e -> List.map (fun e' -> (e, e')) neg) pos

let fo_inseparable_witness (t : Labeling.training) =
  List.find_opt
    (fun (e, e') ->
      Budget.tick ~what:"FO separability: isomorphism tests" ();
      Struct_iso.isomorphic_pointed (t.db, [ e ]) (t.db, [ e' ]))
    (opposite_pairs t)

let fo_separable t = fo_inseparable_witness t = None

(* Every arrow is a pinned question on one context over (D, D). *)
let epfo_separable (t : Labeling.training) =
  match opposite_pairs t with
  | [] -> true
  | pairs ->
      let ctx = Hom.context ~src:t.db ~dst:t.db in
      let arrow a b = Hom.find_ctx ctx ~fix:[ (a, b) ] <> None in
      not (List.exists (fun (e, e') -> arrow e e' && arrow e' e) pairs)

let group_by_iso db entities =
  List.fold_left
    (fun classes e ->
      (* cqlint: allow R1 — recursion bounded by the class count; the iso
         test inside ticks *)
      let rec place = function
        | [] -> [ [ e ] ]
        | (rep :: _ as cls) :: rest ->
            if Struct_iso.isomorphic_pointed (db, [ e ]) (db, [ rep ]) then
              (e :: cls) :: rest
            else cls :: place rest
        | [] :: _ -> assert false
      in
      place classes)
    [] entities

let iso_classes (t : Labeling.training) =
  group_by_iso t.db (Db.entities t.db)

let fo_classify (t : Labeling.training) eval_db =
  if not (fo_separable t) then
    invalid_arg "Fo_sep.fo_classify: training database is not FO-separable";
  let train_reps =
    List.map
      (fun cls ->
        match cls with
        | rep :: _ -> (rep, Labeling.get rep t.labeling)
        | [] -> assert false)
      (iso_classes t)
  in
  List.fold_left
    (fun acc f ->
      let label =
        match
          List.find_opt
            (fun (rep, _) ->
              (* FO-equivalence across databases on finite structures
                 is isomorphism of the pointed databases. *)
              Struct_iso.isomorphic_pointed (t.db, [ rep ]) (eval_db, [ f ]))
            train_reps
        with
        | Some (_, l) -> l
        | None -> Labeling.Neg
      in
      Labeling.set f label acc)
    Labeling.empty (Db.entities eval_db)
