type t = Cq.t list

let dimension = List.length

(* [membership db q] decides [e ∈ q(db)]. A structured plan evaluates
   [q] once over [db] and answers every entity from that set; a
   hom-search plan answers by pointed search per asked entity, which
   for a small batch costs far less than searching from every entity
   of [db]. *)
let membership db q =
  match Eval_engine.plan q with
  | Eval_engine.Hom_search -> Cq.selects q db
  | p ->
      let selected = Elem.Set.of_list (Eval_engine.eval_with_plan q p db) in
      fun e -> Elem.Set.mem e selected

(* Feature-major: each feature is planned and evaluated once for the
   whole list, not once per entity. *)
let vectors_for stat db es =
  match es with
  | [] -> []
  | _ ->
      let tests = List.map (membership db) stat in
      List.map
        (fun e ->
          ( e,
            Array.of_list
              (List.map (fun selects -> if selects e then 1 else -1) tests) ))
        es

let vectors stat db = vectors_for stat db (Db.entities db)
let vector stat db e = snd (List.hd (vectors_for stat db [ e ]))

let examples stat (t : Labeling.training) =
  List.map
    (fun (e, vec) -> { Linsep.vec; label = Labeling.get e t.labeling })
    (vectors stat t.db)

(* Routed through the numeric tier: float-first with exact
   certification, escalating to the exact simplex when certification
   fails. Same contract as Linsep.separable. *)
let separating_classifier stat t = Nsep.separable (examples stat t)
let separates stat t = separating_classifier stat t <> None

let induced_labeling stat classifier db =
  let classify = Linsep.classify classifier in
  List.fold_left
    (fun acc (e, vec) -> Labeling.set e (classify vec) acc)
    Labeling.empty (vectors stat db)

let errors stat classifier (t : Labeling.training) =
  Labeling.disagreement (induced_labeling stat classifier t.db) t.labeling

let max_atoms stat =
  List.fold_left (fun acc q -> max acc (Cq.num_atoms q)) 0 stat

let pp fmt stat =
  Format.fprintf fmt "@[<v>";
  List.iteri (fun i q -> Format.fprintf fmt "q%d: %a@ " (i + 1) Cq.pp q) stat;
  Format.fprintf fmt "@]"
