type plan =
  | Acyclic of Join_tree.tree
  | Decomposed of Ghw_eval.program
  | Hom_search

let plan q =
  Budget.tick ~what:"query planning" ();
  (* The structured engines pay a per-query planning cost that grows
     with the atom count (cubic ear search, exponential decomposition
     search); for very large queries — e.g. deep unravelings — hom
     search, which plans nothing, wins. *)
  if Cq.num_atoms q > 300 then Hom_search
  else
  match Join_tree.build q with
  | Some tree -> Acyclic tree
  | None ->
      let nvars = Elem.Set.cardinal (Cq.existential_vars q) in
      if nvars > 16 then Hom_search
      else begin
        let rec try_width k =
          Budget.tick ~what:"plan: decomposition width search" ();
          if k > 2 then Hom_search
          else begin
            match Cq_decomp.decomposition q ~k with
            | Some forest -> Decomposed (Ghw_eval.compile q forest)
            | None -> try_width (k + 1)
          end
        in
        try_width 1
      end

let plan_kind_name = function
  | Acyclic _ -> "yannakakis"
  | Decomposed _ -> "ghw-decomposition"
  | Hom_search -> "hom-search"

let eval_in rels q = function
  | Acyclic tree -> Join_tree.eval_tree rels tree
  | Decomposed p -> Ghw_eval.run rels p
  | Hom_search -> Cq.eval q (Atom_rels.db rels)

let eval_with_plan q p db = eval_in (Atom_rels.create db) q p

(* --- columns ----------------------------------------------------------- *)

module Column = struct
  type t = int array

  let bits = Sys.int_size
  let create n = Array.make ((n + bits - 1) / bits) 0
  let set c i = c.(i / bits) <- c.(i / bits) lor (1 lsl (i mod bits))
  let mem c i = c.(i / bits) land (1 lsl (i mod bits)) <> 0
  let is_empty c = Array.for_all (fun w -> w = 0) c
  let equal a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b
  let hash c = Array.fold_left (fun h w -> (h * 31) + w) 17 c land max_int
end

type column = Column.t

(* --- batches ----------------------------------------------------------- *)

type batch = {
  xs : (Cq.t * plan) array;  (* distinct x-components *)
  bs : (Cq.t * plan) array;  (* distinct Boolean components *)
  features : (int * int list) array;
      (* per feature: its x-component and its Boolean components *)
}

(* Union-find over atom indices. *)
let components q =
  let free = Cq.free q in
  let atoms = Array.of_list (Cq.atoms q) in
  let parent = Array.init (Array.length atoms) Fun.id in
  (* cqlint: allow R1 — path halving, bounded by the atom count *)
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- parent.(parent.(i));
      find parent.(i)
    end
  in
  let owner = ref Elem.Map.empty in
  Array.iteri
    (fun i atom ->
      Array.iter
        (fun v ->
          match Elem.Map.find_opt v !owner with
          | Some j -> parent.(find i) <- find j
          | None -> owner := Elem.Map.add v i !owner)
        (Fact.args atom))
    atoms;
  let x_root = Option.map find (Elem.Map.find_opt free !owner) in
  (* Each root's atoms, latest first. *)
  let groups = Array.make (Array.length atoms) [] in
  Array.iteri (fun i atom -> groups.(find i) <- atom :: groups.(find i)) atoms;
  let group r = List.rev groups.(r) in
  ( (match x_root with Some r -> group r | None -> []),
    List.filter_map
      (fun r -> if groups.(r) = [] || Some r = x_root then None else Some (group r))
      (List.init (Array.length atoms) Fun.id) )

(* Components are deduplicated by their sorted atom list, with
   [eta(x)] in it for an x-component (a Boolean component never
   mentions x): a structural key, not an isomorphism class, so it
   costs a sort and a hash per component. *)
module Component_tbl = Hashtbl.Make (struct
  type t = Fact.t list

  let equal = List.equal Fact.equal

  let hash =
    List.fold_left
      (fun h f ->
        Array.fold_left
          (fun h e -> (h * 31) + Elem.hash e)
          ((h * 31) + Elem.hash (Elem.sym (Fact.rel f)))
          (Fact.args f))
      17
end)

let batch qs =
  let intern tbl acc key make =
    match Component_tbl.find_opt tbl key with
    | Some i -> i
    | None ->
        let i = Component_tbl.length tbl in
        let q = make () in
        acc := (q, plan q) :: !acc;
        Component_tbl.add tbl key i;
        i
  in
  let xs_tbl = Component_tbl.create 64 and xs = ref [] in
  let bs_tbl = Component_tbl.create 64 and bs = ref [] in
  let features =
    List.map
      (fun q ->
        Budget.tick ~what:"batch: compile" ();
        let free = Cq.free q in
        let x_atoms, booleans = components q in
        let query atoms () = Cq.make ~free atoms in
        let xi =
          intern xs_tbl xs
            (List.sort Fact.compare (Fact.make Db.entity_rel [| free |] :: x_atoms))
            (if booleans = [] then Fun.const q else query x_atoms)
        in
        let bis =
          List.map
            (fun atoms ->
              intern bs_tbl bs (List.sort Fact.compare atoms) (query atoms))
            booleans
        in
        (xi, bis))
      qs
  in
  {
    xs = Array.of_list (List.rev !xs);
    bs = Array.of_list (List.rev !bs);
    features = Array.of_list features;
  }

let columns b db es =
  let n = Array.length es in
  let rels = Atom_rels.create db in
  (* The positions of each element in [es], latest first. *)
  let positions = Elem.Tbl.create n in
  Array.iteri
    (fun i e ->
      let ps = Option.value ~default:[] (Elem.Tbl.find_opt positions e) in
      Elem.Tbl.replace positions e (i :: ps))
    es;
  let x_column (q, p) =
    Budget.tick ~what:"batch: x-column" ();
    let col = Column.create n in
    let mark e = List.iter (Column.set col) (Elem.Tbl.find positions e) in
    let mark_all selected =
      List.iter (fun e -> if Elem.Tbl.mem positions e then mark e) selected
    in
    (match p with
    | Hom_search ->
        (* A pointed search per asked element, once per distinct one
           (at its latest position), all on one context. *)
        let selects = Cq.selector q db in
        Array.iteri
          (fun i e ->
            if List.hd (Elem.Tbl.find positions e) = i && selects e then mark e)
          es
    | p -> mark_all (eval_in rels q p));
    col
  in
  let holds =
    Array.map
      (fun (q, p) ->
        Budget.tick ~what:"batch: Boolean component" ();
        (* x is unconstrained in a Boolean component, so [q(db)] is
           either every entity or none. *)
        match p with
        | Hom_search ->
            Hom.exists ~src:(Db.of_facts (Cq.atoms q)) ~dst:db ()
        | p -> eval_in rels q p <> [])
      b.bs
  in
  let xcols = Array.make (Array.length b.xs) None in
  let xcol i =
    match xcols.(i) with
    | Some col -> col
    | None ->
        let col = x_column b.xs.(i) in
        xcols.(i) <- Some col;
        col
  in
  let empty = Column.create n in
  Array.map
    (fun (xi, bis) ->
      if List.for_all (fun j -> holds.(j)) bis then xcol xi else empty)
    b.features

let eval q db =
  let es = Array.of_list (Db.entities db) in
  let col = (columns (batch [ q ]) db es).(0) in
  List.filteri (fun i _ -> Column.mem col i) (Array.to_list es)
