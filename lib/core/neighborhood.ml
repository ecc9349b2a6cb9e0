(* Canonical entity neighborhoods for evaluation caching.

   A connected feature query with m atoms can only probe facts within
   m hops of the entity it is evaluated at: in any homomorphism
   sending the free variable to [e], an atom at j atom-hops from the
   free variable lands on a fact whose nearest element sits at
   distance <= j from [e] in the fact graph. So for a model whose
   features are all connected, the verdict at [e] is a function of the
   radius-r fact ball around [e] alone, where r is the largest atom
   count — two entities with isomorphic pointed balls classify
   identically, across databases. [key] serializes that ball under a
   deterministic injective renaming: equal keys imply isomorphic
   pointed balls and hence equal verdicts. Canonicity is best effort
   (ties between structurally similar facts fall back to original
   element names), which can only cost cache hits, never correctness.

   Disconnected features break the locality argument, so
   [model_radius] refuses them and callers fall back to a
   database-identity key. *)

let what = "neighborhood: ball walk"

(* An atomless query is trivially connected (and 0-local). *)
let connected q = snd (Eval_engine.components q) = []

let model_radius (stat : Statistic.t) =
  if List.for_all connected stat then
    Some (List.fold_left (fun acc q -> max acc (Cq.num_atoms q)) 1 stat)
  else None

(* The fact ball: every fact whose nearest element is at distance
   < radius from [e], found by BFS over the element/fact incidence
   graph. Returns the facts paired with their minimal element
   distance, plus the element-distance map. *)
let ball ~radius db e =
  let dist = ref (Elem.Map.singleton e 0) in
  let facts = ref Fact.Map.empty in
  let frontier = ref [ e ] in
  let d = ref 0 in
  while !frontier <> [] && !d < radius do
    let layer = List.sort Elem.compare !frontier in
    frontier := [];
    List.iter
      (fun el ->
        List.iter
          (fun f ->
            Budget.tick ~what ();
            if not (Fact.Map.mem f !facts) then facts := Fact.Map.add f !d !facts;
            Array.iter
              (fun arg ->
                if not (Elem.Map.mem arg !dist) then begin
                  dist := Elem.Map.add arg (!d + 1) !dist;
                  frontier := arg :: !frontier
                end)
              (Fact.args f))
          (Db.facts_with_elem el db))
      layer;
    incr d
  done;
  (!facts, !dist)

(* Renaming-invariant-up-to-ties sort rank for a fact: its minimal
   element distance, relation, and the argument distance profile. *)
let rank dist f =
  let args = Fact.args f in
  let profile =
    Array.to_list
      (Array.map
         (fun a ->
           match Elem.Map.find_opt a dist with Some d -> d | None -> max_int)
         args)
  in
  let min_d = List.fold_left min max_int (max_int :: profile) in
  (min_d, Fact.rel f, Array.length args, profile)

(* The order [compare] puts ranks in, without its generic traversal. *)
let compare_rank (d1, r1, n1, p1) (d2, r2, n2, p2) =
  let c = Int.compare d1 d2 in
  if c <> 0 then c
  else
    let c = String.compare r1 r2 in
    if c <> 0 then c
    else
      let c = Int.compare n1 n2 in
      if c <> 0 then c else List.compare Int.compare p1 p2

let key ~radius db e =
  let facts, dist = ball ~radius db e in
  (* Each fact's rank is computed once, not once per comparison. *)
  let ordered =
    List.sort
      (fun (r1, f1) (r2, f2) ->
        let c = compare_rank r1 r2 in
        if c <> 0 then c else Fact.compare f1 f2)
      (Fact.Map.fold (fun f _ acc -> (rank dist f, f) :: acc) facts [])
  in
  (* Injective ids in traversal order; the entity is always n0, so the
     key pins the distinguished point of the ball. *)
  let ids = ref (Elem.Map.singleton e 0) in
  let next = ref 1 in
  let id_of el =
    match Elem.Map.find_opt el !ids with
    | Some i -> i
    | None ->
        let i = !next in
        ids := Elem.Map.add el i !ids;
        incr next;
        i
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "r%d|" radius);
  List.iter
    (fun (_, f) ->
      Budget.tick ~what ();
      Buffer.add_string buf (Fact.rel f);
      Buffer.add_char buf '(';
      Array.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int (id_of a)))
        (Fact.args f);
      Buffer.add_string buf ");")
    ordered;
  Buffer.contents buf
