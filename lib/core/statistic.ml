type t = Cq.t list

let dimension = List.length

let vectors_of_columns cols es =
  List.mapi
    (fun i e ->
      (e, Array.map (fun c -> if Eval_engine.Column.mem c i then 1 else -1) cols))
    es

let vectors_for stat db es =
  match es with
  | [] -> []
  | _ ->
      vectors_of_columns
        (Eval_engine.columns (Eval_engine.batch stat) db (Array.of_list es))
        es

let vectors stat db = vectors_for stat db (Db.entities db)
let vector stat db e = snd (List.hd (vectors_for stat db [ e ]))

let label_rows (t : Labeling.training) rows =
  List.map (fun (e, vec) -> { Linsep.vec; label = Labeling.get e t.labeling }) rows

let examples_of_columns cols (t : Labeling.training) =
  label_rows t (vectors_of_columns cols (Db.entities t.db))

let examples stat (t : Labeling.training) = label_rows t (vectors stat t.db)

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
