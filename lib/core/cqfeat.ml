(* Structured logging: enable with Logs.Src.set_level on the "cqfeat"
   source (the CLI's --verbose does this). *)
let log_src = Logs.Src.create "cqfeat" ~doc:"cqfeat core decisions"

module Log = (val Logs.src_log log_src)

let separable ?dim lang t =
  let result =
    match (dim, (lang : Language.t)) with
    | Some dim, _ -> Dim_sep.separable ~dim lang t
    | None, (Cq_all | Epfo) -> Cq_sep.separable t
    | None, Cq_atoms { m; p } -> Atoms_sep.separable ~m ?p t
    | None, Ghw k -> Ghw_sep.separable ~k t
    | None, Fo -> Fo_sep.fo_separable t
    | None, Fo_k k -> Pebble_game.fok_separable ~k t
  in
  Log.debug (fun m ->
      m "%s-Sep%s(|eta|=%d) = %b" (Language.to_string lang)
        (match dim with Some d -> Printf.sprintf "[%d]" d | None -> "")
        (List.length (Db.entities t.Labeling.db))
        result);
  result

(* The FO_k classes of indistinguishable entities. *)
let fok_classes ~k (t : Labeling.training) =
  List.fold_left
    (fun classes e ->
      (* cqlint: allow R1 — recursion bounded by the class count; the
         equivalence test inside ticks *)
      let rec place = function
        | [] -> [ [ e ] ]
        | (rep :: _ as cls) :: rest ->
            if Pebble_game.equivalent ~k (t.db, [ rep ]) (t.db, [ e ]) then
              (e :: cls) :: rest
            else cls :: place rest
        | [] :: _ -> assert false
      in
      place classes)
    []
    (Db.entities t.db)

(* FO analogue of Algorithm 2: the closest separable relabeling gives
   each class of indistinguishable entities its majority label, so the
   least disagreement is the sum of the minorities. *)
let min_disagreement (t : Labeling.training) classes =
  List.fold_left
    (fun acc cls ->
      let balance =
        List.fold_left
          (fun b e -> b + Labeling.label_sign (Labeling.get e t.labeling))
          0 cls
      in
      acc + ((List.length cls - abs balance) / 2))
    0 classes

let apx_separable ?dim ~eps lang t =
  let budget =
    Atoms_sep.error_budget ~eps (List.length (Db.entities t.Labeling.db))
  in
  (* Dimension collapse (Prop 8.1 / Cor 8.5): for FO and FO_k one
     feature always suffices. *)
  let fo_within classes =
    (match dim with Some d -> d >= 1 | None -> true)
    && min_disagreement t (classes ()) <= budget
  in
  match ((lang : Language.t), dim) with
  | Fo, _ -> fo_within (fun () -> Fo_sep.iso_classes t)
  | Fo_k k, _ -> fo_within (fun () -> fok_classes ~k t)
  | (Cq_all | Epfo | Cq_atoms _ | Ghw _), Some dim ->
      Dim_sep.min_errors_with_sets ~dim
        ~sets:(Dim_sep.realizable_sets lang t)
        ~cap:budget t
      <> None
  | (Cq_all | Epfo), None -> Cq_sep.apx_separable ~eps t
  | Cq_atoms { m; p }, None -> Atoms_sep.apx_separable ~m ?p ~eps t
  | Ghw k, None -> Ghw_sep.apx_separable ~k ~eps t

let generate ?(ghw_depth = 2) ?dim lang t =
  Log.info (fun m ->
      m "generating %s statistic%s" (Language.to_string lang)
        (match dim with Some d -> Printf.sprintf " (dim <= %d)" d | None -> ""));
  match dim with
  | Some dim -> Dim_sep.generate ~ghw_depth_cap:(max ghw_depth 8) ~dim lang t
  | None -> begin
      match (lang : Language.t) with
  | Language.Cq_all | Language.Epfo -> Cq_sep.generate t
  | Language.Cq_atoms { m; p } -> Atoms_sep.generate ~m ?p t
  | Language.Ghw k -> Ghw_sep.generate ~k ~depth:ghw_depth t
      | (Language.Fo | Language.Fo_k _) as lang ->
          Guard.solver_error
            "Cqfeat.generate: %s features are not conjunctive queries"
            (Language.to_string lang)
    end

let classify ?dim lang t eval_db =
  match dim with
  | Some dim -> begin
      match Dim_sep.generate ~dim lang t with
      | Some (stat, c) -> Statistic.induced_labeling stat c eval_db
      | None ->
          Guard.solver_error
            "Cqfeat.classify: %s is not separable within dimension %d"
            (Language.to_string lang) dim
    end
  | None -> begin
      match (lang : Language.t) with
  | Language.Cq_all | Language.Epfo -> Cq_sep.classify t eval_db
  | Language.Cq_atoms { m; p } -> Atoms_sep.classify ~m ?p t eval_db
  | Language.Ghw k -> Ghw_sep.classify ~k t eval_db
      | Language.Fo -> Fo_sep.fo_classify t eval_db
      | Language.Fo_k k -> Pebble_game.fok_classify ~k t eval_db
    end

let apx_classify ~eps lang t eval_db =
  let within_budget err =
    let budget =
      Atoms_sep.error_budget ~eps (List.length (Db.entities t.Labeling.db))
    in
    if err > budget then
      Guard.solver_error
        "Cqfeat.apx_classify: %d errors exceed the eps budget %d" err budget
  in
  match (lang : Language.t) with
  | Language.Ghw k ->
      let labeling, err = Ghw_sep.apx_classify ~k t eval_db in
      within_budget err;
      (labeling, err)
  | Language.Cq_atoms { m; p } -> Atoms_sep.apx_classify ~m ?p ~eps t eval_db
  | Language.Cq_all | Language.Epfo ->
      let relabeling, err = Cq_sep.apx_relabel t in
      within_budget err;
      let t' = Labeling.training t.Labeling.db relabeling in
      (Cq_sep.classify t' eval_db, err)
  | (Language.Fo | Language.Fo_k _) as lang ->
      Guard.solver_error "Cqfeat.apx_classify: not supported for %s features"
        (Language.to_string lang)

let min_dimension ?max_dim lang t = Dim_sep.min_dimension ?max_dim lang t

(* --- budgeted variant ------------------------------------------------ *)

let default_budget = function Some b -> b | None -> Budget.installed ()

let generate_b ?budget ?ghw_depth ?dim lang t =
  Guard.run (default_budget budget) (fun () ->
      generate ?ghw_depth ?dim lang t)
