(* Rows are keyed by shape: the relation name and, for each position,
   the first position holding the same variable. The key renders the
   shape after the last '/', which holds only digits and commas, so two
   shapes never share a key whatever the relation names are. *)

type t = { db : Db.t; table : (string, Elem.t array list) Hashtbl.t }

let create db = { db; table = Hashtbl.create 16 }
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

let rows t atom =
  let args = Fact.args atom in
  let firsts = first_positions args in
  let key =
    Fact.rel atom ^ "/"
    ^ String.concat "," (Array.to_list (Array.map string_of_int firsts))
  in
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
