type instance = { db : Db.t; pos : Elem.t list; neg : Elem.t list }

let make db ~pos ~neg =
  if pos = [] then invalid_arg "Qbe.make: empty positive set";
  let check_entity side e =
    if not (Db.is_entity e db) then
      invalid_arg
        (Printf.sprintf "Qbe.make: %s example %s is not an entity" side
           (Elem.to_string e))
  in
  List.iter (check_entity "positive") pos;
  List.iter (check_entity "negative") neg;
  List.iter
    (fun e ->
      if List.exists (Elem.equal e) neg then
        invalid_arg "Qbe.make: example sets intersect")
    pos;
  { db; pos; neg }

let product_of_positives inst =
  Product.pointed (List.map (fun a -> (inst.db, a)) inst.pos)

(* One homomorphism-search context between the product and the
   database answers every negative as a pinned question. *)
let cq_decide inst =
  inst.neg = []
  ||
  let p, point = product_of_positives inst in
  let ctx = Hom.context ~src:p ~dst:inst.db in
  List.for_all (fun b -> Hom.find_ctx ctx ~fix:[ (point, b) ] = None) inst.neg

let cq_explanation ?(minimize = false) inst =
  if not (cq_decide inst) then None
  else begin
    let p, point = product_of_positives inst in
    let q = Cq.of_pointed_db (p, point) in
    Some (if minimize then Cq.core q else q)
  end

(* One cover-game context between the product and the database
   answers every negative as a pinned query; without negatives there
   is nothing to build it for. *)
let ghw_decide ~k inst =
  inst.neg = []
  ||
  let p, point = product_of_positives inst in
  let ctx = Cover_game.make_context ~k p inst.db in
  List.for_all
    (fun b -> not (Cover_game.holds_ctx ctx ~pin:[ (point, b) ]))
    inst.neg

(* A GHW(k) explanation, materialized as a depth-bounded unraveling of
   the positive product. At the stabilization depth it is exact; the
   caller controls the (exponentially costly) depth. *)
let ghw_explanation ~k ~depth inst =
  if not (ghw_decide ~k inst) then None
  else begin
    let p, point = product_of_positives inst in
    Some (Unravel.unravel ~k ~depth (p, point))
  end

let is_explanation inst q =
  List.for_all (fun a -> Cq.selects q inst.db a) inst.pos
  && List.for_all (fun b -> not (Cq.selects q inst.db b)) inst.neg

let cqm_explanation ~m ?max_var_occ inst =
  let schema = Cq_enum.schema_of_db inst.db in
  let candidates =
    Cq_enum.feature_queries ?max_var_occ ~schema ~max_atoms:m ()
  in
  List.find_opt (is_explanation inst) candidates

let cqm_decide ~m ?max_var_occ inst =
  cqm_explanation ~m ?max_var_occ inst <> None
