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

(* How a distinct component is evaluated. In a linked batch, a
   component whose atoms are those of another component of the batch
   plus one extends that parent: its bindings are the parent's joined
   with the extra atom's rows. The lattice starts at roots, whose
   bindings are one atom's rows; the other components are planned. *)
type link = {
  parent : int;  (* a component of the same array, one atom fewer *)
  index : int;  (* the batch's index of the extra atom's rows ... *)
  lead_at : int;  (* ... grouped on the id at this parent column *)
  eq_cols : int array;  (* further atom columns of shared variables ... *)
  eq_at : int array;  (* ... and the parent columns they must equal *)
  binds : int array;  (* atom columns of new variables, appended *)
}

type source =
  | Planned of plan
  | Root of Fact.t  (* eta(x) alone, or a one-atom Boolean component *)
  | Extends of link

type component = {
  query : Cq.t;
  source : source;
  keep : bool;  (* some component extends it: its bindings are built *)
}

type batch = {
  xs : component array;  (* distinct x-components *)
  bs : component array;  (* distinct Boolean components *)
  features : (int * int list) array;
      (* per feature: its x-component and its Boolean components *)
  indexes : (Fact.t * int) array;
      (* the atom rows links probe: an atom of the shape, and the
         column they are grouped on *)
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

(* The links of one kind of component, given their keys (sorted atom
   lists) in [tbl]. Smaller keys first, so a parent is settled before
   its children: [root key] names the atom whose rows are a root's
   bindings; any other key extends the first tabled component that
   lacks one of its [extra] atoms, preferring a parent that already
   has a child, so that fewer components keep their bindings; a key
   with no such parent, or whose extra atom would share no variable
   with it, is left to be planned. [slot atom col] numbers the index
   of the atom's rows grouped on [col]. Returns each key's source, if
   linked, and whether it is kept. *)
let link_kind ~root ~extra ~slot keys tbl =
  let n = Array.length keys in
  let vars = Array.make n [||] in
  let source = Array.make n None in
  let keep = Array.make n false in
  let shares pvars a =
    List.exists (fun v -> Array.exists (Elem.equal v) pvars) (Atom_rels.distinct_vars a)
  in
  let link p a =
    let pvars = vars.(p) in
    let avars = Array.of_list (Atom_rels.distinct_vars a) in
    let at v =
      List.find_opt (fun c -> Elem.equal pvars.(c) v) (List.init (Array.length pvars) Fun.id)
    in
    let shared, fresh =
      List.partition_map
        (fun c -> match at avars.(c) with Some k -> Left (c, k) | None -> Right c)
        (List.init (Array.length avars) Fun.id)
    in
    (* [shares] held, so [shared] is not empty. *)
    let lead, lead_at = List.hd shared and eqs = List.tl shared in
    ( {
        parent = p;
        index = slot a lead;
        lead_at;
        eq_cols = Array.of_list (List.map fst eqs);
        eq_at = Array.of_list (List.map snd eqs);
        binds = Array.of_list fresh;
      },
      Array.append pvars (Array.of_list (List.map (fun c -> avars.(c)) fresh)) )
  in
  let size = Array.map List.length keys in
  let by_size =
    List.stable_sort (fun i j -> Int.compare size.(i) size.(j)) (List.init n Fun.id)
  in
  List.iter
    (fun i ->
      Budget.tick ~what:"batch: link" ();
      let key = keys.(i) in
      match root key with
      | Some a ->
          source.(i) <- Some (Root a);
          vars.(i) <- Array.of_list (Atom_rels.distinct_vars a)
      | None -> (
          (* The first tabled parent, or the first that is kept. *)
          let chosen = ref None in
          List.iteri
            (fun k a ->
              match !chosen with
              | Some (p, _) when keep.(p) -> ()
              | _ ->
                  if extra a then
                    match Component_tbl.find_opt tbl (List.filteri (fun k' _ -> k' <> k) key) with
                    | Some p when Option.is_some source.(p) && shares vars.(p) a ->
                        if Option.is_none !chosen || keep.(p) then chosen := Some (p, a)
                    | _ -> ())
            key;
          match !chosen with
          | None -> ()
          | Some (p, a) ->
              let l, vs = link p a in
              source.(i) <- Some (Extends l);
              vars.(i) <- vs;
              keep.(p) <- true))
    by_size;
  (source, keep)

let compile ~linked qs =
  let intern tbl acc key make =
    match Component_tbl.find_opt tbl key with
    | Some i -> i
    | None ->
        let i = Component_tbl.length tbl in
        acc := (key, make ()) :: !acc;
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
  let xs = Array.of_list (List.rev !xs) and bs = Array.of_list (List.rev !bs) in
  let slots = Hashtbl.create 16 and indexes = ref [] in
  let slot a col =
    let key = Atom_rels.shape a ^ "@" ^ string_of_int col in
    match Hashtbl.find_opt slots key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length slots in
        Hashtbl.add slots key i;
        indexes := (a, col) :: !indexes;
        i
  in
  let is_entity a = Fact.rel a = Db.entity_rel in
  let links kind tbl ~root ~extra =
    if linked then link_kind ~root ~extra ~slot (Array.map fst kind) tbl
    else (Array.make (Array.length kind) None, Array.make (Array.length kind) false)
  in
  let x_sources, x_keep =
    links xs xs_tbl
      ~root:(function [ a ] when is_entity a -> Some a | _ -> None)
      ~extra:(fun a -> not (is_entity a))
  in
  let b_sources, b_keep =
    links bs bs_tbl ~root:(function [ a ] -> Some a | _ -> None) ~extra:(Fun.const true)
  in
  let finish kind sources keep =
    Array.mapi
      (fun i (_, q) ->
        let source =
          match sources.(i) with Some s -> s | None -> Planned (plan q)
        in
        { query = q; source; keep = keep.(i) })
      kind
  in
  {
    xs = finish xs x_sources x_keep;
    bs = finish bs b_sources b_keep;
    features = Array.of_list features;
    indexes = Array.of_list (List.rev !indexes);
  }

let batch qs = compile ~linked:false qs
let linked_batch qs = compile ~linked:true qs

let link_counts b =
  let count comps =
    ( Array.fold_left
        (fun n c -> match c.source with Planned _ -> n | Root _ | Extends _ -> n + 1)
        0 comps,
      Array.length comps )
  in
  (count b.xs, count b.bs)

(* --- the lattice's bindings ---------------------------------------------- *)

(* A binding table on the pass's element ids: [rows] rows of [width]
   ids each, flat in [data]. A component's columns are its parent's,
   then the variables its extra atom binds; x-components start at
   eta(x), so column 0 is x. *)
type table = { width : int; mutable rows : int; mutable data : int array }

let table_of_rows width rows =
  let t = { width; rows = 0; data = Array.make (max 1 (width * List.length rows)) 0 } in
  List.iter
    (fun row ->
      Budget.tick ~what:"lattice: root rows" ();
      Array.blit row 0 t.data (t.rows * width) width;
      t.rows <- t.rows + 1)
    rows;
  t

(* An atom's id rows grouped on one column by a counting sort: the
   rows holding id [v] there are [starts.(v) .. starts.(v + 1) - 1],
   [arity] ids each, flat in [cells]. Sized by the largest id the rows
   hold, so a probe past it finds nothing. *)
type index = { arity : int; starts : int array; cells : int array }

let group_rows ~arity ~col rows =
  let size = 1 + List.fold_left (fun m row -> max m row.(col)) (-1) rows in
  let starts = Array.make (size + 1) 0 in
  List.iter (fun row -> starts.(row.(col) + 1) <- starts.(row.(col) + 1) + 1) rows;
  for v = 1 to size do
    Budget.tick ~what:"lattice: index" ();
    starts.(v) <- starts.(v) + starts.(v - 1)
  done;
  let fill = Array.sub starts 0 (max size 1) in
  let cells = Array.make (max 1 (arity * List.length rows)) 0 in
  List.iter
    (fun row ->
      Budget.tick ~what:"lattice: index" ();
      let v = row.(col) in
      Array.blit row 0 cells (fill.(v) * arity) arity;
      fill.(v) <- fill.(v) + 1)
    rows;
  { arity; starts; cells }

(* The first atom row of [ix] that agrees with the parent row at [o]
   of [p] on every shared column, from position [j] on; -1 if none. *)
let next_match ix l p o j =
  Budget.tick ~what:"lattice: probe" ();
  let v = p.data.(o + l.lead_at) in
  if v >= Array.length ix.starts - 1 then -1
  else begin
    let stop = ix.starts.(v + 1) in
    let j = ref (max j ix.starts.(v)) and found = ref (-1) in
    while !found < 0 && !j < stop do
      Budget.tick ~what:"lattice: scan" ();
      let c = !j * ix.arity in
      let k = ref 0 in
      (* cqlint: allow R1 — bounded by the arity of one atom *)
      while
        !k < Array.length l.eq_cols
        && ix.cells.(c + l.eq_cols.(!k)) = p.data.(o + l.eq_at.(!k))
      do
        incr k
      done;
      if !k = Array.length l.eq_cols then found := !j else incr j
    done;
    !found
  end

(* [extend p l ix] is the child's table: each row of [p] followed by
   the new columns of each atom row it agrees with. *)
let extend p l ix =
  let width = p.width + Array.length l.binds in
  let t = { width; rows = 0; data = Array.make (max 1 (width * p.rows)) 0 } in
  for r = 0 to p.rows - 1 do
    let o = r * p.width in
    let j = ref (next_match ix l p o 0) in
    while !j >= 0 do
      if (t.rows + 1) * width > Array.length t.data then begin
        let grown = Array.make (2 * Array.length t.data) 0 in
        Array.blit t.data 0 grown 0 (t.rows * width);
        t.data <- grown
      end;
      let d = t.rows * width in
      Array.blit p.data o t.data d p.width;
      Array.iteri
        (fun k c -> t.data.(d + p.width + k) <- ix.cells.((!j * ix.arity) + c))
        l.binds;
      t.rows <- t.rows + 1;
      j := next_match ix l p o (!j + 1)
    done
  done;
  t

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
  let planned_x q p col =
    let mark e = List.iter (Column.set col) (Elem.Tbl.find positions e) in
    match p with
    | Hom_search ->
        (* A pointed search per asked element, once per distinct one
           (at its latest position), all on one context. *)
        let selects = Cq.selector q db in
        Array.iteri
          (fun i e ->
            if List.hd (Elem.Tbl.find positions e) = i && selects e then mark e)
          es
    | p ->
        List.iter
          (fun e -> if Elem.Tbl.mem positions e then mark e)
          (eval_in rels q p)
  in
  (* The lattice: each index built on first probe, each kept
     component's bindings on first request. *)
  let indexes = Array.make (Array.length b.indexes) None in
  let index i =
    match indexes.(i) with
    | Some ix -> ix
    | None ->
        let a, col = b.indexes.(i) in
        let ix =
          group_rows ~arity:(List.length (Atom_rels.distinct_vars a)) ~col
            (Atom_rels.id_rows rels a)
        in
        indexes.(i) <- Some ix;
        ix
  in
  let tables comps =
    let memo = Array.make (Array.length comps) None in
    let rec table i =
      match memo.(i) with
      | Some t -> t
      | None ->
          let t =
            match comps.(i).source with
            | Root a ->
                table_of_rows (List.length (Atom_rels.distinct_vars a))
                  (Atom_rels.id_rows rels a)
            | Extends l ->
                let p = table l.parent in
                (* An empty parent settles its children unevaluated. *)
                if p.rows = 0 then { p with width = p.width + Array.length l.binds }
                else extend p l (index l.index)
            | Planned _ -> invalid_arg "Eval_engine.columns: a planned component has no table"
          in
          memo.(i) <- Some t;
          t
    in
    table
  in
  let x_table = tables b.xs and b_table = tables b.bs in
  (* Per entity id, its positions in [es], and the last x-component
     that marked it. *)
  let x_ids = ref None in
  let ids () =
    match !x_ids with
    | Some v -> v
    | None ->
        let rows = Atom_rels.id_rows rels (Fact.make Db.entity_rel [| Cq.default_free |]) in
        let size = 1 + List.fold_left (fun m row -> max m row.(0)) (-1) rows in
        let pos = Array.make size [] in
        List.iter
          (fun row ->
            pos.(row.(0)) <-
              Option.value ~default:[]
                (Elem.Tbl.find_opt positions (Atom_rels.elem_of_id rels row.(0))))
          rows;
        let v = (pos, Array.make size (-1)) in
        x_ids := Some v;
        v
  in
  let x_column i =
    Budget.tick ~what:"batch: x-column" ();
    let col = Column.create n in
    let c = b.xs.(i) in
    (match c.source with
    | Planned p -> planned_x c.query p col
    | Root _ | Extends _ ->
        let pos, stamp = ids () in
        (* Each x of a surviving row, once. *)
        let mark x =
          if stamp.(x) <> i then begin
            stamp.(x) <- i;
            List.iter (Column.set col) pos.(x)
          end
        in
        match c.source with
        | Extends l when not c.keep ->
            (* π_x(P ⋈ a) = π_x(P ⋉ a): a parent row survives when
               some atom row agrees with it. *)
            let p = x_table l.parent in
            if p.rows > 0 then begin
              let ix = index l.index in
              for r = 0 to p.rows - 1 do
                let o = r * p.width in
                if stamp.(p.data.(o)) <> i && next_match ix l p o 0 >= 0 then
                  mark p.data.(o)
              done
            end
        | _ ->
            let t = x_table i in
            for r = 0 to t.rows - 1 do
              Budget.tick ~what:"lattice: x-column" ();
              mark t.data.(r * t.width)
            done);
    col
  in
  let holds =
    Array.mapi
      (fun j c ->
        Budget.tick ~what:"batch: Boolean component" ();
        match c.source with
        (* x is unconstrained in a Boolean component, so [q(db)] is
           either every entity or none. *)
        | Planned Hom_search ->
            Hom.exists ~src:(Db.of_facts (Cq.atoms c.query)) ~dst:db ()
        | Planned p -> eval_in rels c.query p <> []
        | Root a when not c.keep -> Atom_rels.id_rows rels a <> []
        | Extends l when not c.keep ->
            (* Stop at the first parent row that some atom row agrees with. *)
            let p = b_table l.parent in
            p.rows > 0
            &&
            let ix = index l.index in
            let r = ref 0 in
            while !r < p.rows && next_match ix l p (!r * p.width) 0 < 0 do
              Budget.tick ~what:"lattice: Boolean semijoin" ();
              incr r
            done;
            !r < p.rows
        | Root _ | Extends _ -> (b_table j).rows > 0)
      b.bs
  in
  let xcols = Array.make (Array.length b.xs) None in
  let xcol i =
    match xcols.(i) with
    | Some col -> col
    | None ->
        let col = x_column i in
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
