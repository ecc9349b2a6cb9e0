(* Tree-of-covered-sets construction. Variables are
   [Tup [Int node_id; a]] for element a first reached at node node_id;
   the distinguished element becomes the free variable everywhere. *)

let unravel ~k ~depth (d, e) =
  if k < 1 then invalid_arg "Unravel.unravel: k must be >= 1";
  if depth < 0 then invalid_arg "Unravel.unravel: negative depth";
  let sets =
    List.filter
      (fun s -> not (Elem.Set.is_empty s))
      (Cover_game.covered_subsets ~k d)
  in
  let free = Cq.default_free in
  let counter = ref 0 in
  let atoms = ref [] in
  (* [var_map] maps the elements of the current node's set to their
     variables (inherited from the parent on shared elements). *)
  let emit_atoms x var_map =
    let scope = Elem.Set.add e x in
    let translate a =
      if Elem.equal a e then free else Elem.Map.find a var_map
    in
    List.iter
      (fun f ->
        if Elem.Set.subset (Fact.elems f) scope then
          atoms := Fact.map_elems translate f :: !atoms)
      (List.sort_uniq Fact.compare
         (List.concat_map
            (fun a -> Db.facts_with_elem a d)
            (Elem.Set.elements scope)))
  in
  let rec node x var_map remaining =
    Budget.tick ~what:"unravel: node expansion" ();
    emit_atoms x var_map;
    if remaining > 0 then
      List.iter
        (fun y ->
          incr counter;
          let id = !counter in
          let var_map' =
            Elem.Set.fold
              (fun a acc ->
                let v =
                  if Elem.equal a e then free
                  else begin
                    match Elem.Map.find_opt a var_map with
                    | Some v when Elem.Set.mem a x -> v
                    | _ -> Elem.tup [ Elem.int id; a ]
                  end
                in
                Elem.Map.add a v acc)
              y Elem.Map.empty
          in
          node y var_map' (remaining - 1))
        sets
  in
  node Elem.Set.empty Elem.Map.empty depth;
  Cq.make ~free !atoms

let node_count ~k ~depth d =
  let s =
    List.length
      (List.filter
         (fun set -> not (Elem.Set.is_empty set))
         (Cover_game.covered_subsets ~k d))
  in
  let rec go level acc width =
    if level > depth then acc else go (level + 1) (acc + width) (width * s)
  in
  go 0 0 1

let stable_unravel ~k ~max_depth (d, e) =
  let rec go prev depth =
    if depth > max_depth then (prev, depth - 1)
    else begin
      let q = unravel ~k ~depth (d, e) in
      if Cq.equivalent prev q then (prev, depth - 1) else go q (depth + 1)
    end
  in
  go (unravel ~k ~depth:0 (d, e)) 1
