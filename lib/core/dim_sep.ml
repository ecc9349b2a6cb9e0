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
  | Fo | Fo_k _ ->
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
  | Cq_all | Epfo | Ghw _ ->
      (* ∃FO⁺ is searched over CQ's sets (see the interface). *)
      let decide pos neg =
        let inst = Qbe.make t.db ~pos ~neg in
        match lang with
        | Cq_all | Epfo -> Qbe.cq_decide inst
        | Ghw k -> Qbe.ghw_decide ~k inst
        | Cq_atoms _ | Fo | Fo_k _ -> assert false
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

(* The one combination search behind Sep[ℓ], Sep[*] and ApxSep[ℓ]:
   every choice of at most [dim] of the deduplicated candidate columns,
   by ascending size and lexicographically within a size. [leaf] sees a
   choice as its indicator sets and the training's ±1 vectors over
   them; the search stops at the first leaf that answers [Some]. *)
let first_combination (type a) ~dim ~sets (t : Labeling.training)
    (leaf : Elem.Set.t list -> Linsep.example list -> a option) : a option =
  let entities = Db.entities t.db in
  let labels = List.map (fun e -> Labeling.get e t.labeling) entities in
  let cols = Array.of_list (dedupe_columns (columns_of_sets ~sets entities)) in
  let ncols = Array.length cols in
  let examples_of chosen =
    List.mapi
      (fun i label ->
        {
          Linsep.vec =
            Array.of_list
              (List.map (fun c -> if (snd cols.(c)).(i) then 1 else -1) chosen);
          label;
        })
      labels
  in
  let exception Found of a in
  let rec combos size start acc =
    Budget.tick ~what:"dim: feature combination search" ();
    if size = 0 then begin
      let chosen = List.rev acc in
      let sets = List.map (fun c -> fst cols.(c)) chosen in
      match leaf sets (examples_of chosen) with
      | Some found -> raise (Found found)
      | None -> ()
    end
    else
      for c = start to ncols - size do
        combos (size - 1) (c + 1) (c :: acc)
      done
  in
  match
    for size = 0 to min dim ncols do
      combos size 0 []
    done
  with
  | () -> None
  | exception Found found -> Some found

let witness_with_sets ~dim ~sets t =
  (* Numeric tier with exact certification; escalates internally. *)
  first_combination ~dim ~sets t (fun chosen examples ->
      Option.map (fun c -> (chosen, c)) (Nsep.separable examples))

let min_errors_with_sets ~dim ~sets ?cap (t : Labeling.training) =
  let cap =
    ref (match cap with Some c -> c | None -> List.length (Db.entities t.db))
  in
  let best = ref None in
  if !cap >= 0 then
    ignore
      (first_combination ~dim ~sets t (fun chosen examples ->
           match Linsep.min_errors_exact ~cap:!cap examples with
           | Some (err, c) ->
               (* Only a strictly better choice may replace this one. *)
               best := Some (err, chosen, c);
               cap := err - 1;
               if err = 0 then Some () else None
           | None -> None));
  !best

let separable ~dim lang (t : Labeling.training) =
  match (lang : Language.t) with
  | Fo ->
      (* Dimension collapse (Prop 8.1): one feature suffices whenever
         any statistic separates. *)
      dim >= 1 && Fo_sep.fo_separable t
  | Fo_k k ->
      (* Dimension collapse for FO_k (Cor 8.5). *)
      dim >= 1 && Pebble_game.fok_separable ~k t
  | Cq_all | Cq_atoms _ | Ghw _ | Epfo ->
      witness_with_sets ~dim ~sets:(realizable_sets lang t) t <> None

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
  match witness_with_sets ~dim ~sets:(realizable_sets lang t) t with
  | None -> None
  | Some (chosen, classifier) ->
      let features =
        List.map
          (fun s ->
            match realize_set ?ghw_depth_cap lang t s with
            | Some q -> q
            | None ->
                Guard.solver_error
                  "Dim_sep.generate: a realizable set of %d entities could \
                   not be materialized (raise ghw_depth_cap)"
                  (Elem.Set.cardinal s))
          chosen
      in
      Some (features, classifier)

(* Sizes ascend, so the first witness of the search up to [max_dim] has
   the least separating dimension; the realizable sets are computed
   once for all dimensions. *)
let min_dimension ?max_dim lang (t : Labeling.training) =
  let max_dim =
    match max_dim with Some d -> d | None -> List.length (Db.entities t.db)
  in
  match (lang : Language.t) with
  | Fo | Fo_k _ -> if separable ~dim:max_dim lang t then Some 1 else None
  | Cq_all | Cq_atoms _ | Ghw _ | Epfo ->
      if max_dim < 0 then None
      else
        Option.map
          (fun (chosen, _) -> List.length chosen)
          (witness_with_sets ~dim:max_dim ~sets:(realizable_sets lang t) t)

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
