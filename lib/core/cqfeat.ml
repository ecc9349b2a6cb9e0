(* Structured logging: enable with Logs.Src.set_level on the "cqfeat"
   source (the CLI's --verbose does this). *)
let log_src = Logs.Src.create "cqfeat" ~doc:"cqfeat core decisions"

module Log = (val Logs.src_log log_src)

let rec separable ?dim lang t =
  let result =
    separable_inner ?dim lang t
  in
  Log.debug (fun m ->
      m "%s-Sep%s(|eta|=%d) = %b" (Language.to_string lang)
        (match dim with Some d -> Printf.sprintf "[%d]" d | None -> "")
        (List.length (Db.entities t.Labeling.db))
        result);
  result

and separable_inner ?dim lang t =
  match dim with
  | Some dim -> Dim_sep.separable ~dim lang t
  | None -> begin
      match (lang : Language.t) with
      | Language.Cq_all | Language.Epfo -> Cq_sep.separable t
      | Language.Cq_atoms { m; p } -> Atoms_sep.separable ~m ?p t
      | Language.Ghw k -> Ghw_sep.separable ~k t
      | Language.Fo -> Fo_sep.fo_separable t
      | Language.Fo_k k -> Pebble_game.fok_separable ~k t
    end

let error_budget ~eps n =
  let scaled = Rat.mul eps (Rat.of_int n) in
  Bigint.to_int (Bigint.div (Rat.num scaled) (Rat.den scaled))

(* FO analogue of Algorithm 2: majority label per isomorphism class is
   the closest FO-separable relabeling. *)
let fo_min_disagreement (t : Labeling.training) =
  List.fold_left
    (fun acc cls ->
      let balance =
        List.fold_left
          (fun b e -> b + Labeling.label_sign (Labeling.get e t.labeling))
          0 cls
      in
      let minority = (List.length cls - abs balance) / 2 in
      acc + minority)
    0 (Fo_sep.iso_classes t)

(* Same majority argument, FO_k classes. *)
let fok_min_disagreement ~k (t : Labeling.training) =
  let classes =
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
  in
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
  match dim with
  | Some dim -> begin
      match (lang : Language.t) with
      | Language.Fo ->
          (* Dimension collapse: one feature always suffices. *)
          dim >= 1
          &&
          let n = List.length (Db.entities t.Labeling.db) in
          fo_min_disagreement t <= error_budget ~eps n
      | Language.Fo_k k ->
          dim >= 1
          &&
          let n = List.length (Db.entities t.Labeling.db) in
          fok_min_disagreement ~k t <= error_budget ~eps n
      | Language.Epfo | Language.Cq_all | Language.Cq_atoms _ | Language.Ghw _
        ->
          let lang =
            match lang with Language.Epfo -> Language.Cq_all | l -> l
          in
          let sets = Dim_sep.realizable_sets lang t in
          let n = List.length (Db.entities t.Labeling.db) in
          let budget = error_budget ~eps n in
          (match Dim_sep.min_errors_with_sets ~dim ~sets ~cap:budget t with
          | Some (err, _, _) -> err <= budget
          | None -> false)
    end
  | None -> begin
      match (lang : Language.t) with
      | Language.Cq_all | Language.Epfo -> Cq_sep.apx_separable ~eps t
      | Language.Cq_atoms { m; p } -> Atoms_sep.apx_separable ~m ?p ~eps t
      | Language.Ghw k -> Ghw_sep.apx_separable ~k ~eps t
      | Language.Fo ->
          let n = List.length (Db.entities t.Labeling.db) in
          fo_min_disagreement t <= error_budget ~eps n
      | Language.Fo_k k ->
          let n = List.length (Db.entities t.Labeling.db) in
          fok_min_disagreement ~k t <= error_budget ~eps n
    end

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
  match (lang : Language.t) with
  | Language.Ghw k ->
      let labeling, err = Ghw_sep.apx_classify ~k t eval_db in
      let n = List.length (Db.entities t.Labeling.db) in
      if err > error_budget ~eps n then
        Guard.solver_error
          "Cqfeat.apx_classify: %d errors exceed the eps budget %d" err
          (error_budget ~eps n);
      (labeling, err)
  | Language.Cq_atoms { m; p } -> Atoms_sep.apx_classify ~m ?p ~eps t eval_db
  | Language.Cq_all | Language.Epfo ->
      let relabeling, err = Cq_sep.apx_relabel t in
      let n = List.length (Db.entities t.Labeling.db) in
      if err > error_budget ~eps n then
        Guard.solver_error
          "Cqfeat.apx_classify: %d errors exceed the eps budget %d" err
          (error_budget ~eps n);
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
