let all_features ~m ?p db =
  Cq_enum.feature_queries ?max_var_occ:p
    ~schema:(Cq_enum.schema_of_db db) ~max_atoms:m ()

module Column_tbl = Hashtbl.Make (Eval_engine.Column)

let pruned_columns ~m ?p db =
  let features, batch =
    Cq_enum.feature_batch ?max_var_occ:p
      ~schema:(Cq_enum.schema_of_db db) ~max_atoms:m ()
  in
  let cols = Eval_engine.columns batch db (Array.of_list (Db.entities db)) in
  let seen = Column_tbl.create 64 in
  List.filter
    (fun (_, c) -> (not (Column_tbl.mem seen c)) && (Column_tbl.add seen c (); true))
    (List.combine features (Array.to_list cols))

let pruned_features ~m ?p (t : Labeling.training) =
  List.map fst (pruned_columns ~m ?p t.db)

(* The pruned statistic, with its examples read off its columns. *)
let pruned_examples ~m ?p (t : Labeling.training) =
  let kept = pruned_columns ~m ?p t.db in
  ( List.map fst kept,
    Statistic.examples_of_columns (Array.of_list (List.map snd kept)) t )

let generate ~m ?p (t : Labeling.training) =
  let stat, examples = pruned_examples ~m ?p t in
  match Nsep.separable examples with
  | Some c -> Some (stat, c)
  | None -> None

let separable ~m ?p t = generate ~m ?p t <> None

let classify ~m ?p (t : Labeling.training) eval_db =
  match generate ~m ?p t with
  | None ->
      invalid_arg "Atoms_sep.classify: training database is not CQ[m]-separable"
  | Some (stat, c) -> Statistic.induced_labeling stat c eval_db

let min_errors ~m ?p ?cap (t : Labeling.training) =
  let stat, examples = pruned_examples ~m ?p t in
  match Linsep.min_errors_exact ?cap examples with
  | Some (err, c) -> Some (err, stat, c)
  | None -> None

let error_budget ~eps n =
  (* largest integer ≤ eps·n *)
  let scaled = Rat.mul eps (Rat.of_int n) in
  let num = Rat.num scaled and den = Rat.den scaled in
  Bigint.to_int (Bigint.div num den)

let apx_separable ~m ?p ~eps (t : Labeling.training) =
  let n = List.length (Db.entities t.db) in
  let budget = error_budget ~eps n in
  match min_errors ~m ?p ~cap:budget t with
  | Some (err, _, _) -> err <= budget
  | None -> false

let apx_classify ~m ?p ~eps (t : Labeling.training) eval_db =
  let n = List.length (Db.entities t.db) in
  let budget = error_budget ~eps n in
  match min_errors ~m ?p ~cap:budget t with
  | Some (err, stat, c) when err <= budget ->
      (Statistic.induced_labeling stat c eval_db, err)
  | _ ->
      invalid_arg
        "Atoms_sep.apx_classify: no CQ[m] classifier within the error budget"

(* --- budgeted variant ------------------------------------------------ *)

let default_budget = function Some b -> b | None -> Budget.installed ()

let min_errors_b ?budget ~m ?p ?cap t =
  Guard.run (default_budget budget) (fun () -> min_errors ~m ?p ?cap t)
