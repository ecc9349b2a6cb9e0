(* Width-k evaluation: materialize each decomposition node as a
   relation over its bag, then reduce each tree bottom-up with
   semijoins. A node also carries a column for the free variable x when
   some atom of its subtree mentions x. Those nodes form a subtree
   around the root, so adding x to their bags keeps the
   running-intersection property, and the per-entity answer drops out
   of the root. A subtree that never mentions x gets no x column: an
   x-free tree is a non-emptiness test, never a product with the entity
   list.

   A relation is (columns, rows): columns is a variable list, each row
   a value array aligned with it. *)

type rel = { cols : Elem.t list; rows : Elem.t array list }

let col_index cols v =
  (* cqlint: allow R1 — recursion bounded by the column count of one relation *)
  let rec go i = function
    | [] -> None
    | w :: rest -> if Elem.equal w v then Some i else go (i + 1) rest
  in
  go 0 cols

let atom_relation rels atom =
  { cols = Atom_rels.distinct_vars atom; rows = Atom_rels.rows rels atom }

let project keep rel =
  let positions = List.filter_map (fun v -> col_index rel.cols v) keep in
  let kept_cols =
    List.filter (fun v -> col_index rel.cols v <> None) keep
  in
  let seen = Elem.Row_tbl.create 64 in
  let rows =
    List.filter_map
      (fun row ->
        let key = List.map (fun p -> row.(p)) positions in
        if Elem.Row_tbl.mem seen key then None
        else begin
          Elem.Row_tbl.add seen key ();
          Some (Array.of_list key)
        end)
      rel.rows
  in
  { cols = kept_cols; rows }

let natural_join a b =
  let shared =
    List.filter (fun v -> col_index b.cols v <> None) a.cols
  in
  let a_pos = List.filter_map (fun v -> col_index a.cols v) shared in
  let b_pos = List.filter_map (fun v -> col_index b.cols v) shared in
  let b_extra_cols =
    List.filter (fun v -> col_index a.cols v = None) b.cols
  in
  let b_extra_pos = List.filter_map (fun v -> col_index b.cols v) b_extra_cols in
  let index = Elem.Row_tbl.create (List.length b.rows) in
  List.iter
    (fun row ->
      let key = List.map (fun p -> row.(p)) b_pos in
      let existing =
        match Elem.Row_tbl.find_opt index key with Some l -> l | None -> []
      in
      Elem.Row_tbl.replace index key (row :: existing))
    b.rows;
  let rows =
    List.concat_map
      (fun arow ->
        Budget.tick ~what:"decomposed join" ();
        let key = List.map (fun p -> arow.(p)) a_pos in
        match Elem.Row_tbl.find_opt index key with
        | None -> []
        | Some brows ->
            List.map
              (fun brow ->
                Array.append arow
                  (Array.of_list (List.map (fun p -> brow.(p)) b_extra_pos)))
              brows)
      a.rows
  in
  { cols = a.cols @ b_extra_cols; rows }

let semijoin a b =
  let shared = List.filter (fun v -> col_index b.cols v <> None) a.cols in
  let a_pos = List.filter_map (fun v -> col_index a.cols v) shared in
  let b_pos = List.filter_map (fun v -> col_index b.cols v) shared in
  let keys = Elem.Row_tbl.create (List.length b.rows) in
  List.iter
    (fun row ->
      Elem.Row_tbl.replace keys (List.map (fun p -> row.(p)) b_pos) ())
    b.rows;
  {
    a with
    rows =
      List.filter
        (fun row ->
          Budget.tick ~what:"decomposed semijoin" ();
          Elem.Row_tbl.mem keys (List.map (fun p -> row.(p)) a_pos))
        a.rows;
  }

let eval_with_decomp rels q forest =
  let free = Cq.free q in
  let ex = Cq.existential_vars q in
  let entity_rel = atom_relation rels (Fact.make Db.entity_rel [| free |]) in
  (* Atoms whose existential variables are nonempty get assigned to a
     node whose bag contains them; the rest constrain x alone. *)
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec nodes d = d :: List.concat_map nodes d.Cq_decomp.children in
  let node_id = List.mapi (fun i d -> (i, d)) (List.concat_map nodes forest) in
  let assigned = Hashtbl.create 16 in
  let x_only = ref [] in
  List.iter
    (fun atom ->
      let evars = Elem.Set.inter (Fact.elems atom) ex in
      if Elem.Set.is_empty evars then x_only := atom :: !x_only
      else begin
        match
          List.find_opt
            (fun (_, d) -> Elem.Set.subset evars d.Cq_decomp.bag)
            node_id
        with
        | Some (i, _) ->
            let existing =
              match Hashtbl.find_opt assigned i with Some l -> l | None -> []
            in
            Hashtbl.replace assigned i (atom :: existing)
        | None ->
            invalid_arg
              "Ghw_eval: decomposition does not cover all atoms"
      end)
    (Cq.atoms q);
  (* Bottom-up: a node is the join of its cover and assigned atoms —
     joined with the entity list when its subtree mentions x —
     projected to its bag (and x), then semijoined with its children.
     Nodes are numbered in preorder, as [nodes] lists them. *)
  let counter = ref (-1) in
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec reduce (d : Cq_decomp.decomp) =
    incr counter;
    let i = !counter in
    let local =
      d.cover @ (match Hashtbl.find_opt assigned i with Some l -> l | None -> [])
    in
    let children = List.map reduce d.children in
    let needs_x =
      List.exists (fun atom -> Array.exists (Elem.equal free) (Fact.args atom)) local
      || List.exists (fun c -> col_index c.cols free <> None) children
    in
    (* Join the atom relations first: starting from the entity list
       would cross-product x with unrelated columns. *)
    let joined =
      match List.map (atom_relation rels) local with
      | [] -> { cols = []; rows = [ [||] ] }
      | first :: rest -> List.fold_left natural_join first rest
    in
    let joined = if needs_x then natural_join joined entity_rel else joined in
    List.fold_left semijoin
      (project (free :: Elem.Set.elements d.bag) joined)
      children
  in
  let roots = List.map reduce forest in
  let all_entities = Elem.Set.of_list (List.map (fun row -> row.(0)) entity_rel.rows) in
  let x_values r =
    if col_index r.cols free = None then
      if r.rows = [] then Elem.Set.empty else all_entities
    else
      Elem.Set.of_list (List.map (fun row -> row.(0)) (project [ free ] r).rows)
  in
  let x_only_sets =
    List.map
      (fun atom -> x_values (natural_join entity_rel (atom_relation rels atom)))
      !x_only
  in
  Elem.Set.elements
    (List.fold_left Elem.Set.inter all_entities
       (List.map x_values roots @ x_only_sets))

let eval ~k q db =
  match Cq_decomp.decomposition q ~k with
  | None -> None
  | Some forest -> Some (eval_with_decomp (Atom_rels.create db) q forest)
