(* Facts of the n-ary product: for each relation R and each n-tuple of
   R-facts (f_1,...,f_n), the fact R(ē) with ē.(j) the n-tuple of the
   j-th arguments. Built relation by relation to avoid scanning fact
   tuples of distinct relations. *)

let nary dbs =
  match dbs with
  | [] -> invalid_arg "Product.nary: empty list"
  | first :: _ ->
      let rels = List.map fst (Db.relations first) in
      let product_facts_of_rel rel =
        let fact_lists = List.map (Db.facts_of_rel rel) dbs in
        (* All n-tuples (f_1,...,f_n) with f_i drawn from the i-th
           database's R-facts; empty when some database lacks R. *)
        let rec combos = function
          | [] -> [ [] ]
          | fl :: rest ->
              let tails = combos rest in
              List.concat_map
                (fun f ->
                  Budget.tick ~what:"product enumeration" ();
                  List.map (fun t -> f :: t) tails)
                fl
        in
        let mk facts_tuple =
          match facts_tuple with
          | [] -> None
          | f0 :: _ ->
              let arity = Fact.arity f0 in
              if List.for_all (fun f -> Fact.arity f = arity) facts_tuple
              then begin
                let args =
                  Array.init arity (fun j ->
                      Elem.tup
                        (List.map (fun f -> (Fact.args f).(j)) facts_tuple))
                in
                Some (Fact.make rel args)
              end
              else None
        in
        List.filter_map mk (combos fact_lists)
      in
      let facts = List.concat_map product_facts_of_rel rels in
      Db.of_facts facts

let binary d1 d2 = nary [ d1; d2 ]

let pointed pds =
  match pds with
  | [] -> invalid_arg "Product.pointed: empty list"
  | _ ->
      let dbs = List.map fst pds in
      let point = Elem.tup (List.map snd pds) in
      (nary dbs, point)
