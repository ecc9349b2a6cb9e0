(* Rows are keyed by shape: the relation name and, for each position,
   the first position holding the same variable. The key renders the
   shape after the last '/', which holds only digits and commas, so two
   shapes never share a key whatever the relation names are. *)

(* The id view: the elements of the id rows asked for so far, numbered
   in the order they were first met ([elems.(i)] for [i < count]), and
   the id rows of each shape asked for. *)
type ids = {
  mutable elems : Elem.t array;
  mutable count : int;
  id_of : int Elem.Tbl.t;
  id_table : (string, int array list) Hashtbl.t;
}

type t = {
  db : Db.t;
  table : (string, Elem.t array list) Hashtbl.t;
  mutable ids : ids option;
}

let create db = { db; table = Hashtbl.create 16; ids = None }
let db t = t.db

let first_positions args =
  Array.map
    (fun v ->
      (* cqlint: allow R1 — recursion bounded by the arity of one atom *)
      let rec find j = if Elem.equal args.(j) v then j else find (j + 1) in
      find 0)
    args

let distinct_vars atom =
  let args = Fact.args atom in
  let firsts = first_positions args in
  List.filteri (fun i _ -> firsts.(i) = i) (Array.to_list args)

let shape_key atom firsts =
  Fact.rel atom ^ "/"
  ^ String.concat "," (Array.to_list (Array.map string_of_int firsts))

let shape atom = shape_key atom (first_positions (Fact.args atom))

let rows t atom =
  let args = Fact.args atom in
  let firsts = first_positions args in
  let key = shape_key atom firsts in
  match Hashtbl.find_opt t.table key with
  | Some rows -> rows
  | None ->
      Budget.tick ~what:"atom relation" ();
      let arity = Array.length args in
      let positions = List.filter (fun i -> firsts.(i) = i) (List.init arity Fun.id) in
      (* A repeated variable must carry equal values: pair each repeat
         with the variable's first position, so a fact pays one
         comparison per repeat. *)
      let repeats =
        List.filter_map
          (fun i -> if firsts.(i) < i then Some (firsts.(i), i) else None)
          (List.init arity Fun.id)
      in
      let rows =
        List.filter_map
          (fun f ->
            let fargs = Fact.args f in
            if
              Array.length fargs = arity
              && List.for_all (fun (p, i) -> Elem.equal fargs.(p) fargs.(i)) repeats
            then Some (Array.of_list (List.map (fun p -> fargs.(p)) positions))
            else None)
          (Db.facts_of_rel (Fact.rel atom) t.db)
      in
      Hashtbl.add t.table key rows;
      rows

let ids t =
  match t.ids with
  | Some ids -> ids
  | None ->
      let ids =
        { elems = [||]; count = 0; id_of = Elem.Tbl.create 64; id_table = Hashtbl.create 16 }
      in
      t.ids <- Some ids;
      ids

let intern ids e =
  match Elem.Tbl.find_opt ids.id_of e with
  | Some i -> i
  | None ->
      let i = ids.count in
      if i = Array.length ids.elems then begin
        let grown = Array.make (max 64 (2 * i)) e in
        Array.blit ids.elems 0 grown 0 i;
        ids.elems <- grown
      end;
      ids.elems.(i) <- e;
      ids.count <- i + 1;
      Elem.Tbl.add ids.id_of e i;
      i

let id_count t = (ids t).count

let elem_of_id t i =
  let ids = ids t in
  if i < 0 || i >= ids.count then invalid_arg "Atom_rels.elem_of_id: unknown id";
  ids.elems.(i)

let id_rows t atom =
  let ids = ids t in
  let key = shape atom in
  match Hashtbl.find_opt ids.id_table key with
  | Some rows -> rows
  | None ->
      Budget.tick ~what:"atom ids" ();
      let rows = List.map (Array.map (intern ids)) (rows t atom) in
      Hashtbl.add ids.id_table key rows;
      rows
