let subsets_of_entities entities =
  let n = List.length entities in
  if n > 20 then
    Guard.solver_error
      "Dim_sep.subsets_of_entities: %d entities exceed the 20-entity cap — \
       the subset enumeration behind Sep[ℓ] for CQ/GHW(k) is exponential \
       (Theorem 6.6)"
      n;
  let arr = Array.of_list entities in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let s = ref Elem.Set.empty in
    for i = 0 to n - 1 do
      Budget.tick ~what:"dim: subset enumeration" ();
      if mask land (1 lsl i) <> 0 then s := Elem.Set.add arr.(i) !s
    done;
    out := !s :: !out
  done;
  List.rev !out

let realizable_sets lang (t : Labeling.training) =
  let entities = Db.entities t.db in
  match (lang : Language.t) with
  | Fo | Fo_k _ | Epfo ->
      Guard.solver_error
        "Dim_sep.realizable_sets: %s collapses to dimension 1 (Prop 8.1 / \
         Cor 8.5); use Fo_sep or Pebble_game"
        (Language.to_string lang)
  | Cq_atoms { m; p } ->
      List.filter_map
        (fun (_, c) ->
          if Eval_engine.Column.is_empty c then None
          else
            Some
              (Elem.Set.of_list
                 (List.filteri (fun i _ -> Eval_engine.Column.mem c i) entities)))
        (Atoms_sep.pruned_columns ~m ?p t.db)
  | Cq_all | Ghw _ ->
      let decide pos neg =
        let inst = Qbe.make t.db ~pos ~neg in
        match lang with
        | Cq_all -> Qbe.cq_decide inst
        | Ghw k -> Qbe.ghw_decide ~k inst
        | Cq_atoms _ | Fo | Fo_k _ | Epfo -> assert false
      in
      List.filter
        (fun s ->
          let pos = Elem.Set.elements s in
          let neg =
            List.filter (fun e -> not (Elem.Set.mem e s)) entities
          in
          decide pos neg)
        (subsets_of_entities entities)

let columns_of_sets ~sets entities =
  let ents = Array.of_list entities in
  List.map
    (fun s -> (s, Array.map (fun e -> Elem.Set.mem e s) ents))
    sets

(* Deduplicate candidate columns up to complement: a feature and its
   pointwise negation induce the same separable collections (negate the
   weight). *)
let dedupe_columns cols =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (_, col) ->
      let key = Array.to_list col in
      let co_key = List.map not key in
      if Hashtbl.mem seen key || Hashtbl.mem seen co_key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    cols

let witness_with_sets ?(seed_numeric = false) ~dim ~sets
    (t : Labeling.training) =
  let entities = Db.entities t.db in
  let labels =
    Array.of_list (List.map (fun e -> Labeling.get e t.labeling) entities)
  in
  let n = Array.length labels in
  let cols = Array.of_list (dedupe_columns (columns_of_sets ~sets entities)) in
  let ncols = Array.length cols in
  let examples_of chosen =
    List.init n (fun i ->
        {
          Linsep.vec =
            Array.of_list
              (List.map
                 (fun c -> if (snd cols.(c)).(i) then 1 else -1)
                 chosen);
          label = labels.(i);
        })
  in
  let exception Found of int list * Linsep.classifier in
  let check chosen =
    (* Numeric tier with exact certification; escalates internally. *)
    match Nsep.separable (examples_of chosen) with
    | Some c -> raise (Found (chosen, c))
    | None -> ()
  in
  (* l1-seeded candidate: fit one sparsified numeric separator over
     ALL candidate columns and try its support first. A pure
     search-order heuristic — [check] raises on success and the
     exhaustive sweep below runs unchanged otherwise, so the verdict
     is identical with or without it. *)
  let seed () =
    if seed_numeric && ncols > 0 && n > 0 then begin
      Budget.tick ~what:"dim: numeric support seeding" ();
      let xs =
        Array.init n (fun i ->
            Array.init ncols (fun c ->
                if (snd cols.(c)).(i) then 1.0 else -1.0))
      in
      let ys =
        Array.init n (fun i -> float_of_int (Labeling.label_sign labels.(i)))
      in
      let config = { Cg.default_config with Cg.l1 = 0.1 } in
      let sup = Cg.support (Cg.fit ~config ~xs ~ys ()) in
      let cap = min dim ncols in
      match List.filteri (fun i _ -> i < cap) sup with
      | [] -> ()
      | chosen -> check chosen
    end
  in
  (* Sizes 0..dim: combinations of column indices. *)
  let rec combos size start acc =
    Budget.tick ~what:"dim: feature combination search" ();
    if size = 0 then check (List.rev acc)
    else
      for c = start to ncols - size do
        combos (size - 1) (c + 1) (c :: acc)
      done
  in
  match
    seed ();
    for size = 0 to min dim ncols do
      combos size 0 []
    done
  with
  | () -> None
  | exception Found (chosen, c) ->
      Some (List.map (fun i -> fst cols.(i)) chosen, c)

let separable_with_sets ?seed_numeric ~dim ~sets t =
  witness_with_sets ?seed_numeric ~dim ~sets t <> None

(* Minimum training error over statistics of at most [dim] of the
   candidate sets: exhaustive over the (deduplicated) combinations,
   exact min-error LP search inside. Drives the ApxSep[ℓ] variants
   (Prop 7.3(3)). *)
let min_errors_with_sets ~dim ~sets ?cap (t : Labeling.training) =
  let entities = Db.entities t.db in
  let labels =
    Array.of_list (List.map (fun e -> Labeling.get e t.labeling) entities)
  in
  let n = Array.length labels in
  let cols = Array.of_list (dedupe_columns (columns_of_sets ~sets entities)) in
  let ncols = Array.length cols in
  let examples_of chosen =
    List.init n (fun i ->
        {
          Linsep.vec =
            Array.of_list
              (List.map
                 (fun c -> if (snd cols.(c)).(i) then 1 else -1)
                 chosen);
          label = labels.(i);
        })
  in
  let best = ref None in
  let consider chosen =
    let cap' =
      match (!best, cap) with
      | Some (b, _), _ -> b - 1
      | None, Some c -> c
      | None, None -> n
    in
    if cap' >= 0 then begin
      match Linsep.min_errors_exact ~cap:cap' (examples_of chosen) with
      | Some (err, cl) ->
          let sets' = List.map (fun c -> fst cols.(c)) chosen in
          best := Some (err, (sets', cl))
      | None -> ()
    end
  in
  let rec combos size start acc =
    Budget.tick ~what:"dim: feature combination search" ();
    if size = 0 then consider (List.rev acc)
    else
      for c = start to ncols - size do
        combos (size - 1) (c + 1) (c :: acc)
      done
  in
  for size = 0 to min dim ncols do
    combos size 0 []
  done;
  match !best with
  | Some (err, (sets', cl)) -> Some (err, sets', cl)
  | None -> None

let separable_with_sets_of t lang dim =
  let sets = realizable_sets lang t in
  separable_with_sets ~dim ~sets t

let separable ~dim lang (t : Labeling.training) =
  match (lang : Language.t) with
  | Fo ->
      (* Dimension collapse (Prop 8.1): one feature suffices whenever
         any statistic separates. *)
      dim >= 1 && Fo_sep.fo_separable t
  | Fo_k k ->
      (* Dimension collapse for FO_k (Cor 8.5). *)
      dim >= 1 && Pebble_game.fok_separable ~k t
  | Epfo ->
      (* ∃FO⁺ agrees with CQ on separability (Prop 8.3(2)) and on
         realizable indicator sets (both are closed the same way on
         finite databases). *)
      separable_with_sets_of t Language.Cq_all dim
  | (Cq_all | Cq_atoms _ | Ghw _) as lang -> separable_with_sets_of t lang dim

(* Realize an indicator set S as an actual feature query of the
   language: a QBE explanation for (D, S, η∖S). *)
let realize_set ?(ghw_depth_cap = 8) lang (t : Labeling.training) s =
  let entities = Db.entities t.db in
  let pos = Elem.Set.elements s in
  let neg = List.filter (fun e -> not (Elem.Set.mem e s)) entities in
  let inst = Qbe.make t.db ~pos ~neg in
  match (lang : Language.t) with
  | Cq_all | Epfo -> Qbe.cq_explanation ~minimize:true inst
  | Cq_atoms { m; p } -> Qbe.cqm_explanation ~m ?max_var_occ:p inst
  | Ghw k ->
      (* Unravel the positive product until its indicator set over the
         training database is exactly S (Prop 5.6-style; depth-bounded
         with a cap). *)
      let product, point = Qbe.product_of_positives inst in
      let rec try_depth depth =
        Budget.tick ~what:"dim: unraveling depth search" ();
        if depth > ghw_depth_cap then None
        else begin
          let q = Unravel.unravel ~k ~depth (product, point) in
          let sel = Elem.Set.of_list (Eval_engine.eval q t.db) in
          if Elem.Set.equal sel s then Some q else try_depth (depth + 1)
        end
      in
      try_depth 1
  | Fo | Fo_k _ ->
      Guard.solver_error "Dim_sep.realize_set: %s features are not \
                          conjunctive queries"
        (Language.to_string lang)

let generate ?ghw_depth_cap ~dim lang (t : Labeling.training) =
  let search_lang =
    match (lang : Language.t) with Epfo -> Language.Cq_all | l -> l
  in
  let sets = realizable_sets search_lang t in
  match witness_with_sets ~dim ~sets t with
  | None -> None
  | Some (chosen, classifier) ->
      let features =
        List.map
          (fun s ->
            match realize_set ?ghw_depth_cap search_lang t s with
            | Some q -> q
            | None ->
                Guard.solver_error
                  "Dim_sep.generate: a realizable set of %d entities could \
                   not be materialized (raise ghw_depth_cap)"
                  (Elem.Set.cardinal s))
          chosen
      in
      Some (features, classifier)

let min_dimension ?max_dim lang (t : Labeling.training) =
  let n = List.length (Db.entities t.db) in
  let max_dim = match max_dim with Some d -> d | None -> n in
  let rec go d =
    Budget.tick ~what:"dim: dimension search" ();
    if d > max_dim then None
    else if separable ~dim:d lang t then Some d
    else go (d + 1)
  in
  go 0

(* --- Lemma 6.5: QBE ≤p Sep[ℓ] ---------------------------------------- *)

let qbe_to_sep ~l (inst : Qbe.instance) =
  if l < 1 then Guard.solver_error "Dim_sep.qbe_to_sep: l must be >= 1, got %d" l;
  let cminus = Elem.sym "qbe_cminus" in
  let cs = List.init (l - 1) (fun i -> Elem.sym (Printf.sprintf "qbe_c%d" i)) in
  let db =
    List.fold_left
      (fun db (i, ci) ->
        Db.add (Fact.make_l (Printf.sprintf "kappa%d" i) [ ci ]) db)
      inst.db
      (List.mapi (fun i ci -> (i, ci)) cs)
  in
  (* Every domain element becomes an entity. *)
  let db =
    Elem.Set.fold Db.add_entity (Db.domain db) (Db.add_entity cminus db)
  in
  let labeled =
    List.map (fun e -> (e, Labeling.Pos)) (inst.pos @ cs)
    @ List.map (fun e -> (e, Labeling.Neg)) (cminus :: inst.neg)
  in
  Labeling.training db (Labeling.of_list labeled)
