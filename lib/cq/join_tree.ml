(* GYO ear removal + Yannakakis full reducer.

   Each atom carries its distinct-variable list; a relation is the list
   of value rows aligned with that list. The ear-removal order doubles
   as the bottom-up schedule (ears are removed leaves-first); the
   top-down pass then only walks the path from the root to eta(x). *)

type tree = {
  atoms : Fact.t array;
  distinct_vars : Elem.t list array;  (* per atom, in first-occurrence order *)
  parent : int option array;
  removal_order : int list;  (* ears first; roots last *)
  free : Elem.t;
}

let build q =
  let atoms = Array.of_list (Db.facts (Cq.canonical q)) in
  let n = Array.length atoms in
  let var_sets = Array.map Fact.elems atoms in
  let alive = Array.make n true in
  let parent = Array.make n None in
  let order = ref [] in
  let remaining = ref n in
  let progress = ref true in
  while !remaining > 1 && !progress do
    Budget.tick ~what:"join tree: ear removal" ();
    progress := false;
    (* Find an ear: an alive atom whose shared variables (those
       occurring in another alive atom) are contained in a single
       other alive atom, its witness/parent. *)
    let i = ref 0 in
    while !i < n && not !progress do
      Budget.tick ~what:"join tree: ear search" ();
      if alive.(!i) then begin
        let shared =
          Elem.Set.filter
            (fun v ->
              let occurs_elsewhere = ref false in
              (* cqlint: allow R1 — scan bounded by the atom count *)
              for j = 0 to n - 1 do
                if j <> !i && alive.(j) && Elem.Set.mem v var_sets.(j) then
                  occurs_elsewhere := true
              done;
              !occurs_elsewhere)
            var_sets.(!i)
        in
        let witness = ref None in
        (* cqlint: allow R1 — scan bounded by the atom count *)
        for j = 0 to n - 1 do
          if
            !witness = None && j <> !i && alive.(j)
            && (not (Elem.Set.is_empty shared))
            && Elem.Set.subset shared var_sets.(j)
          then witness := Some j
        done;
        match !witness with
        | Some j ->
            alive.(!i) <- false;
            parent.(!i) <- Some j;
            order := !i :: !order;
            decr remaining;
            progress := true
        | None ->
            (* An isolated atom (no shared vars at all) is a root of
               its own component: retire it without a parent. *)
            if Elem.Set.is_empty shared then begin
              alive.(!i) <- false;
              order := !i :: !order;
              decr remaining;
              progress := true
            end
      end;
      incr i
    done
  done;
  if !remaining > 1 then None
  else begin
    (* The last alive atom (if any) is a root. *)
    (* cqlint: allow R1 — scan bounded by the atom count *)
    for i = 0 to n - 1 do
      if alive.(i) then order := i :: !order
    done;
    Some
      {
        atoms;
        distinct_vars = Array.map Atom_rels.distinct_vars atoms;
        parent;
        removal_order = List.rev !order;
        free = Cq.free q;
      }
  end

let is_acyclic q = build q <> None

(* --- relations -------------------------------------------------------- *)

(* Shared columns between two atoms: positions in each row. *)
let shared_positions dvars_a dvars_b =
  List.filteri (fun _ v -> List.exists (Elem.equal v) dvars_b) dvars_a
  |> List.map (fun v ->
         let idx vars =
           (* cqlint: allow R1 — recursion bounded by the column count *)
           let rec go i = function
             | [] -> assert false
             | w :: rest -> if Elem.equal v w then i else go (i + 1) rest
           in
           go 0 vars
         in
         (idx dvars_a, idx dvars_b))

let project row positions = List.map (fun p -> row.(p)) positions

(* a ⋉ b on the shared columns. One shared column (the common case
   for binary relations) keys on the element itself, with no per-row
   key list. *)
let semijoin (rel_a, dv_a) (rel_b, dv_b) =
  match shared_positions dv_a dv_b with
  | [] -> if rel_b = [] then [] else rel_a
  | [ (pa, pb) ] ->
      let keys = Elem.Tbl.create 64 in
      List.iter (fun row -> Elem.Tbl.replace keys row.(pb) ()) rel_b;
      List.filter (fun row -> Elem.Tbl.mem keys row.(pa)) rel_a
  | pos ->
      let pa = List.map fst pos and pb = List.map snd pos in
      let keys = Elem.Row_tbl.create 64 in
      List.iter
        (fun row -> Elem.Row_tbl.replace keys (project row pb) ())
        rel_b;
      List.filter (fun row -> Elem.Row_tbl.mem keys (project row pa)) rel_a

let eval_tree rels t =
  let rows = Array.map (Atom_rels.rows rels) t.atoms in
  (* Bottom-up: when an ear is retired, semijoin its parent. *)
  List.iter
    (fun i ->
      match t.parent.(i) with
      | Some p ->
          rows.(p) <-
            semijoin
              (rows.(p), t.distinct_vars.(p))
              (rows.(i), t.distinct_vars.(i))
      | None -> ())
    t.removal_order;
  (* Global satisfiability: every root must be nonempty (roots
     absorb their whole component's constraints after the
     bottom-up pass). *)
  let roots_ok =
    List.for_all
      (fun i -> t.parent.(i) <> None || rows.(i) <> [])
      t.removal_order
  in
  if not roots_ok then []
  else begin
    let eta_idx =
      (* cqlint: allow R1 — scan bounded by the atom count; eta(x) exists *)
      let rec find i =
        if Fact.rel t.atoms.(i) = Db.entity_rel
           && Elem.equal (Fact.args t.atoms.(i)).(0) t.free
        then i
        else find (i + 1)
      in
      find 0
    in
    (* Top-down, only along the path from the root to eta(x): a
       relation is globally consistent once its parent is and it has
       been filtered by it, so the other branches need no pass. *)
    (* cqlint: allow R1 — recursion bounded by the depth of the join tree *)
    let rec reduce i =
      match t.parent.(i) with
      | None -> ()
      | Some p ->
          reduce p;
          rows.(i) <-
            semijoin
              (rows.(i), t.distinct_vars.(i))
              (rows.(p), t.distinct_vars.(p))
    in
    reduce eta_idx;
    (* eta(x) has the single column x. *)
    List.sort_uniq Elem.compare (List.map (fun row -> row.(0)) rows.(eta_idx))
  end

let eval q db =
  match build q with
  | None -> invalid_arg "Join_tree.eval: query is not alpha-acyclic"
  | Some t -> eval_tree (Atom_rels.create db) t
