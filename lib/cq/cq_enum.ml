(* Feature queries are generated as sorted-by-relation atom sequences
   with a canonical fresh-variable discipline (the i-th fresh variable
   to appear is y_{i}), then deduplicated up to isomorphism. Every CQ
   with at most [max_atoms] atoms is isomorphic to one generated this
   way: sort its atoms by relation name and rename variables by first
   occurrence. *)

let schema_of_db db =
  List.filter (fun (rel, _) -> rel <> Db.entity_rel) (Db.relations db)

let fresh_var i = Elem.sym (Printf.sprintf "y%d" i)

(* The relation symbols the generator walks, in the order it walks
   them: [eta] dropped, stably sorted by name. *)
let normalize_schema schema =
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (List.filter (fun (rel, _) -> rel <> Db.entity_rel) schema)

let generate ?max_var_occ ~schema ~max_atoms ~emit () =
  let schema = Array.of_list (normalize_schema schema) in
  let occ_ok occ =
    match max_var_occ with
    | None -> true
    | Some p -> Elem.Map.for_all (fun _ c -> c <= p) occ
  in
  (* Enumerate argument tuples for one atom of arity [ar]: each
     position is an existing variable or the next fresh one. *)
  let rec tuples ar next_fresh existing acc k =
    Budget.tick ~what:"CQ[m] feature enumeration" ();
    if ar = 0 then k (List.rev acc) next_fresh
    else begin
      List.iter
        (fun v -> tuples (ar - 1) next_fresh existing (v :: acc) k)
        existing;
      let v = fresh_var next_fresh in
      tuples (ar - 1) (next_fresh + 1) (existing @ [ v ]) (v :: acc) k
    end
  in
  let bump occ vs =
    List.fold_left
      (fun occ v ->
        let c = match Elem.Map.find_opt v occ with Some c -> c | None -> 0 in
        Elem.Map.add v (c + 1) occ)
      occ vs
  in
  let rec go atoms count next_fresh existing occ min_rel =
    Budget.tick ~what:"CQ[m] feature enumeration" ();
    emit (List.rev atoms);
    if count < max_atoms then
      for r = min_rel to Array.length schema - 1 do
        let rel, ar = schema.(r) in
        tuples ar next_fresh existing [] (fun vs next_fresh' ->
            let occ' = bump occ vs in
            if occ_ok occ' then begin
              let existing' =
                List.fold_left
                  (fun ex v ->
                    if List.exists (Elem.equal v) ex then ex else ex @ [ v ])
                  existing vs
              in
              go
                (Fact.make_l rel vs :: atoms)
                (count + 1) next_fresh' existing' occ' r
            end)
      done
  in
  go [] 0 0 [ Cq.default_free ] Elem.Map.empty 0

let enumerate ?max_var_occ ~schema ~max_atoms () =
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let emit atoms =
    let q = Cq.make ~free:Cq.default_free atoms in
    let key = Cq.iso_canonical_string q in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := q :: !out
    end
  in
  generate ?max_var_occ ~schema ~max_atoms ~emit ();
  List.rev !out

(* Prop 4.1: the list depends only on the schema and the bounds, so it
   is enumerated once per (normalized schema, m, p), and compiled into
   an evaluation batch on first request. Each value is inserted only
   after it is complete — a budget abort never leaves a partial list or
   a half-compiled batch behind (an aborted compile leaves the entry
   holding the list alone) — and the table is cleared when full. *)
let memo_capacity = 16

let memo :
    ( (string * int) list * int * int option,
      Cq.t list * Eval_engine.batch option )
    Hashtbl.t =
  Hashtbl.create memo_capacity

let () =
  Runtime_state.register ~name:"cq_enum.memo"
    ~validate:(fun () -> Hashtbl.length memo <= memo_capacity)
    (fun () -> Hashtbl.reset memo)

let memo_entry ?max_var_occ ~schema ~max_atoms () =
  let key = (normalize_schema schema, max_atoms, max_var_occ) in
  match Hashtbl.find_opt memo key with
  | Some entry -> (key, entry)
  | None ->
      let qs = enumerate ?max_var_occ ~schema ~max_atoms () in
      if Hashtbl.length memo >= memo_capacity then Hashtbl.reset memo;
      Hashtbl.replace memo key (qs, None);
      (key, (qs, None))

let feature_queries ?max_var_occ ~schema ~max_atoms () =
  fst (snd (memo_entry ?max_var_occ ~schema ~max_atoms ()))

let feature_batch ?max_var_occ ~schema ~max_atoms () =
  match memo_entry ?max_var_occ ~schema ~max_atoms () with
  | _, (qs, Some b) -> (qs, b)
  | key, (qs, None) ->
      let b = Eval_engine.batch qs in
      Hashtbl.replace memo key (qs, Some b);
      (qs, b)

let count ?max_var_occ ~schema ~max_atoms () =
  List.length (feature_queries ?max_var_occ ~schema ~max_atoms ())

let dedupe_equivalent qs =
  let keep = ref [] in
  List.iter
    (fun q ->
      if not (List.exists (fun q' -> Cq.equivalent q q') !keep) then
        keep := q :: !keep)
    qs;
  List.rev !keep
