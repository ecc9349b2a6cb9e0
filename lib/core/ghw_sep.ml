let chain ~k (t : Labeling.training) =
  let entities = Array.of_list (Db.entities t.db) in
  let matrix = Cover_game.preorder ~k t.db (Array.to_list entities) in
  Preorder_chain.build ~entities ~matrix

let inseparable_witness ~k t =
  match Preorder_chain.consistent_labels (chain ~k t) t.Labeling.labeling with
  | Ok _ -> None
  | Error pair -> Some pair

let separable ~k t = inseparable_witness ~k t = None

(* Algorithm 1 under the class labels [labels]: every arrow
   [(D, rep) →_k (D', f)] is a pinned query on one cover-game context
   between the training and the evaluation database. *)
let label_eval ~k (t : Labeling.training) ch labels eval_db =
  let ctx = Cover_game.make_context ~k t.db eval_db in
  let arrow rep f = Cover_game.holds_ctx ctx ~pin:[ (rep, f) ] in
  List.fold_left
    (fun acc (f, l) -> Labeling.set f l acc)
    Labeling.empty
    (Preorder_chain.classify ~arrow ch labels (Db.entities eval_db))

let classify ~k (t : Labeling.training) eval_db =
  let ch = chain ~k t in
  match Preorder_chain.consistent_labels ch t.labeling with
  | Error _ ->
      invalid_arg "Ghw_sep.classify: training database is not GHW(k)-separable"
  | Ok labels -> label_eval ~k t ch labels eval_db

let generate ~k ~depth (t : Labeling.training) =
  let ch = chain ~k t in
  match Preorder_chain.consistent_labels ch t.labeling with
  | Error _ -> None
  | Ok labels ->
      let feature rep = Unravel.unravel ~k ~depth (t.db, rep) in
      let stat = List.map feature (Array.to_list ch.Preorder_chain.reps) in
      Some (stat, Preorder_chain.classifier ch labels)

let relabeling_of ch labels =
  Array.to_list ch.Preorder_chain.members
  |> List.mapi (fun i cls -> List.map (fun e -> (e, labels.(i))) cls)
  |> List.concat |> Labeling.of_list

let apx_relabel ~k (t : Labeling.training) =
  let ch = chain ~k t in
  let labels, disagreement = Preorder_chain.majority_labels ch t.labeling in
  (relabeling_of ch labels, disagreement)

let apx_separable ~k ~eps (t : Labeling.training) =
  let _, disagreement = apx_relabel ~k t in
  let n = List.length (Db.entities t.db) in
  Rat.compare (Rat.of_int disagreement) (Rat.mul eps (Rat.of_int n)) <= 0

let apx_classify ~k (t : Labeling.training) eval_db =
  let ch = chain ~k t in
  let labels, disagreement = Preorder_chain.majority_labels ch t.labeling in
  (label_eval ~k t ch labels eval_db, disagreement)
