(* Reference homomorphism decision for the differential tests: try every
   map from dom src to dom dst that sends each pinned element of dom src
   to its pin, and ask [Hom.is_hom] about each. Exponential on purpose;
   it shares only [Hom.is_hom] with the library. Pins on elements
   outside dom src are ignored. *)

let exists ~fix ~src ~dst =
  let targets = Elem.Set.elements (Db.domain dst) in
  let choices a =
    match List.filter_map (fun (x, y) -> if Elem.equal x a then Some y else None) fix with
    | [] -> targets
    | b :: bs ->
        if List.for_all (Elem.equal b) bs && List.exists (Elem.equal b) targets
        then [ b ]
        else []
  in
  let rec maps todo m =
    match todo with
    | [] -> Hom.is_hom m ~src ~dst
    | a :: rest -> List.exists (fun b -> maps rest (Elem.Map.add a b m)) (choices a)
  in
  maps (Elem.Set.elements (Db.domain src)) Elem.Map.empty
