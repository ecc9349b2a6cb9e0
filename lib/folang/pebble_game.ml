(* Greatest fixpoint for the k-pebble game.

   A position is a partial correspondence of at most k (a, b) pairs,
   stored as a sorted association list keyed by the a-side. Alive
   positions must be partial isomorphisms relative to the pins; a
   position dies when
   - a one-pair restriction died (Spoiler lifts a pebble first), or
   - it has fewer than k pairs and some forth/back extension has no
     alive answer (Spoiler places a pebble Duplicator cannot match).
   Duplicator wins iff the empty position survives. *)

let partial_iso ~pin_a ~pin_b a b pairs =
  (* The full correspondence: pebbled pairs plus pins. *)
  let full = pairs @ List.combine pin_a pin_b in
  (* functional + injective *)
  (* cqlint: allow R1 — pairwise scan bounded by k pebbles plus the pins *)
  let rec functional = function
    | [] -> true
    | (x, y) :: rest ->
        List.for_all
          (fun (x', y') ->
            (not (Elem.equal x x') || Elem.equal y y')
            && (not (Elem.equal y y') || Elem.equal x x'))
          rest
        && functional rest
  in
  functional full
  &&
  let dom = List.map fst full and img = List.map snd full in
  let map_a x =
    match List.find_opt (fun (x', _) -> Elem.equal x x') full with
    | Some (_, y) -> y
    | None -> raise Exit
  in
  let map_b y =
    match List.find_opt (fun (_, y') -> Elem.equal y y') full with
    | Some (x, _) -> x
    | None -> raise Exit
  in
  (* facts within the domain must transfer in both directions *)
  let facts_within db scope map target =
    List.for_all
      (fun f ->
        match Fact.map_elems map f with
        | f' -> Db.mem f' target
        | exception Exit -> true)
      (List.sort_uniq Fact.compare
         (List.concat_map (fun x -> Db.facts_with_elem x db) scope))
  in
  facts_within a dom map_a b && facts_within b img map_b a

let equivalent ~k (a, tuple_a) (b, tuple_b) =
  if k < 1 then invalid_arg "Pebble_game.equivalent: k must be >= 1";
  if List.length tuple_a <> List.length tuple_b then
    invalid_arg "Pebble_game.equivalent: tuples of different lengths";
  let pin_a = tuple_a and pin_b = tuple_b in
  let ok_pos pairs = partial_iso ~pin_a ~pin_b a b pairs in
  if not (ok_pos []) then false
  else begin
    let dom_a = Elem.Set.elements (Db.domain a) in
    let dom_b = Elem.Set.elements (Db.domain b) in
    (* Enumerate alive positions level by level (size 0..k). *)
    let key pairs =
      List.sort
        (fun (x, _) (x', _) -> Elem.compare x x')
        pairs
    in
    let positions = Hashtbl.create 1024 in
    (* key -> id *)
    let store = ref [] in
    let npos = ref 0 in
    let add pairs =
      let pairs = key pairs in
      if not (Hashtbl.mem positions pairs) then begin
        Hashtbl.replace positions pairs !npos;
        store := pairs :: !store;
        incr npos
      end
    in
    let rec enumerate pairs size =
      Budget.tick ~what:"pebble game: positions" ();
      add pairs;
      if size < k then
        List.iter
          (fun x ->
            if not (List.exists (fun (x', _) -> Elem.equal x x') pairs) then
              List.iter
                (fun y ->
                  let pairs' = (x, y) :: pairs in
                  if ok_pos pairs' then enumerate pairs' (size + 1))
                dom_b)
          dom_a
    in
    enumerate [] 0;
    let store = Array.of_list (List.rev !store) in
    let n = !npos in
    let alive = Array.make n true in
    let id_of pairs = Hashtbl.find_opt positions (key pairs) in
    (* Single sweep conditions; iterate to fixpoint. *)
    let survives id =
      Budget.tick ~what:"pebble game: fixpoint" ();
      let pairs = store.(id) in
      let size = List.length pairs in
      (* restriction closure *)
      List.for_all
        (fun p ->
          match id_of (List.filter (fun p' -> p' != p) pairs) with
          | Some rid -> alive.(rid)
          | None -> false)
        pairs
      && (size = k
         ||
         (* forth *)
         List.for_all
           (fun x ->
             List.exists (fun (x', _) -> Elem.equal x x') pairs
             || List.exists
                  (fun y ->
                    match id_of ((x, y) :: pairs) with
                    | Some eid -> alive.(eid)
                    | None -> false)
                  dom_b)
           dom_a
         &&
         (* back *)
         List.for_all
           (fun y ->
             List.exists (fun (_, y') -> Elem.equal y y') pairs
             || List.exists
                  (fun x ->
                    match id_of ((x, y) :: pairs) with
                    | Some eid -> alive.(eid)
                    | None -> false)
                  dom_a)
           dom_b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for id = 0 to n - 1 do
        if alive.(id) && not (survives id) then begin
          alive.(id) <- false;
          changed := true
        end
      done
    done;
    match id_of [] with Some id -> alive.(id) | None -> false
  end

let opposite_pairs (t : Labeling.training) =
  let pos = Labeling.positives t.labeling in
  let neg = Labeling.negatives t.labeling in
  List.concat_map (fun e -> List.map (fun e' -> (e, e')) neg) pos

let fok_inseparable_witness ~k (t : Labeling.training) =
  List.find_opt
    (fun (e, e') -> equivalent ~k (t.db, [ e ]) (t.db, [ e' ]))
    (opposite_pairs t)

let fok_separable ~k t = fok_inseparable_witness ~k t = None

(* FO_k classification: like FO classification, by equivalence class.
   FO_k-equivalence classes of pointed finite structures are definable
   by single FO_k formulas, so any class-constant labeling is
   realizable. *)
let fok_classify ~k (t : Labeling.training) eval_db =
  if not (fok_separable ~k t) then
    invalid_arg "Pebble_game.fok_classify: training is not FO_k-separable";
  (* training representatives with labels, deduped by equivalence *)
  let reps =
    List.fold_left
      (fun reps e ->
        if
          List.exists
            (fun (r, _) -> equivalent ~k (t.db, [ r ]) (t.db, [ e ]))
            reps
        then reps
        else (e, Labeling.get e t.labeling) :: reps)
      []
      (Db.entities t.db)
  in
  List.fold_left
    (fun acc f ->
      let label =
        match
          List.find_opt
            (fun (r, _) -> equivalent ~k (t.db, [ r ]) (eval_db, [ f ]))
            reps
        with
        | Some (_, l) -> l
        | None -> Labeling.Neg
      in
      Labeling.set f label acc)
    Labeling.empty (Db.entities eval_db)
