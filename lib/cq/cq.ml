type t = { free : Elem.t; canon : Db.t }

let default_free = Elem.sym "x"

let of_canonical ~free db = { free; canon = Db.add_entity free db }
let make ~free atoms = of_canonical ~free (Db.of_facts atoms)
let of_pointed_db (db, e) = of_canonical ~free:e db

let free q = q.free
let canonical q = q.canon

let eta_atom q = Fact.make Db.entity_rel [| q.free |]

let atoms q =
  List.filter (fun f -> not (Fact.equal f (eta_atom q))) (Db.facts q.canon)

let num_atoms q = List.length (atoms q)
let vars q = Db.domain q.canon
let existential_vars q = Elem.Set.remove q.free (vars q)

let max_var_occurrences q =
  let occ = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Array.iter
        (fun v ->
          let c = try Hashtbl.find occ v with Not_found -> 0 in
          Hashtbl.replace occ v (c + 1))
        (Fact.args f))
    (atoms q);
  (* cqlint: allow R6 — max is commutative and associative: fold order cannot change the result *)
  Hashtbl.fold (fun _ c acc -> max c acc) occ 0

let selector q db =
  let ctx = Hom.context ~src:q.canon ~dst:db in
  fun e -> Hom.find_ctx ctx ~fix:[ (q.free, e) ] <> None

let selects q db e = selector q db e

let eval q db = List.filter (selector q db) (Db.entities db)

let contained_in q1 q2 =
  Hom.pointed q2.canon [ q2.free ] q1.canon [ q1.free ]

let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

(* Conjunction: tag the existential variables of each conjunct with a
   distinct index so they cannot collide, and glue the free
   variables. *)
let conjoin q1 q2 =
  let tag i fr v =
    if Elem.equal v fr then default_free else Elem.tup [ Elem.int i; v ]
  in
  let c1 = Db.map_elems (tag 1 q1.free) q1.canon in
  let c2 = Db.map_elems (tag 2 q2.free) q2.canon in
  of_canonical ~free:default_free (Db.union c1 c2)

let conjoin_all = function
  | [] -> invalid_arg "Cq.conjoin_all: empty list"
  | q :: qs -> List.fold_left conjoin q qs

let top = make ~free:default_free []

(* Core computation: repeatedly look for an element a (other than the
   free variable) that can be retracted away — i.e. a homomorphism from
   the canonical database into the sub-database of facts avoiding a,
   fixing the free variable. Replacing the query by the image keeps it
   equivalent (fold in one direction, inclusion in the other). *)
let core q =
  let rec shrink canon =
    Budget.tick ~what:"cq core: retraction" ();
    let candidates = Elem.Set.remove q.free (Db.domain canon) in
    let try_drop a =
      let without_a =
        Db.filter (fun f -> not (Elem.Set.mem a (Fact.elems f))) canon
      in
      if Elem.Set.mem q.free (Db.domain without_a) || Db.size without_a = 0
      then
        match Hom.find ~fix:[ (q.free, q.free) ] ~src:canon ~dst:without_a () with
        | Some h ->
            let image =
              Db.of_facts
                (List.map
                   (Fact.map_elems (fun v -> Elem.Map.find v h))
                   (Db.facts canon))
            in
            Some image
        | None -> None
      else None
    in
    let rec first_drop = function
      | [] -> canon
      | a :: rest -> begin
          match try_drop a with
          | Some image -> shrink image
          | None -> first_drop rest
        end
    in
    first_drop (Elem.Set.elements candidates)
  in
  { q with canon = shrink q.canon }

(* Deterministic canonical renaming: breadth-first from the free
   variable through atoms (sorted structurally), then leftovers. *)
let canonical_order q =
  let order = ref [] in
  let seen = ref Elem.Set.empty in
  let push v =
    if not (Elem.Set.mem v !seen) then begin
      seen := Elem.Set.add v !seen;
      order := v :: !order
    end
  in
  push q.free;
  let sorted_facts = List.sort Fact.compare (Db.facts q.canon) in
  let rec loop () =
    Budget.tick ~what:"cq: canonical order" ();
    let before = Elem.Set.cardinal !seen in
    List.iter
      (fun f ->
        if Array.exists (fun v -> Elem.Set.mem v !seen) (Fact.args f) then
          Array.iter push (Fact.args f))
      sorted_facts;
    if Elem.Set.cardinal !seen > before then loop ()
  in
  loop ();
  List.iter (fun f -> Array.iter push (Fact.args f)) sorted_facts;
  List.rev !order

let rename_canonically q =
  let order = canonical_order q in
  let mapping = Hashtbl.create 16 in
  List.iteri
    (fun i v ->
      let name =
        if i = 0 then default_free else Elem.sym (Printf.sprintf "y%d" (i - 1))
      in
      Hashtbl.replace mapping v name)
    order;
  let rename v = Hashtbl.find mapping v in
  { free = rename q.free; canon = Db.map_elems rename q.canon }

let render_plain q =
  let q = rename_canonically q in
  String.concat ";"
    (List.sort String.compare (List.map Fact.to_string (Db.facts q.canon)))

(* Isomorphism-canonical form on integers. The variables are numbered
   with the free variable as 0 and each atom becomes [| rel; v1; ...;
   vk |], where [rel] is the rank of the atom's (name, arity) among the
   query's sorted relation symbols — an isomorphism invariant, so ranks
   are comparable across isomorphic queries. The facts of [D_q] are
   distinct, so the encoded atoms are too. *)

let compare_int_arrays (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  (* cqlint: allow R1 — scan bounded by the shorter array's length *)
  let rec go i =
    if i >= la || i >= lb then Int.compare la lb
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let encode q =
  let facts = Db.facts q.canon in
  let rels =
    List.sort_uniq compare
      (List.map (fun f -> (Fact.rel f, Fact.arity f)) facts)
  in
  let rel_ids = List.mapi (fun i r -> (r, i)) rels in
  let rel_id f = List.assoc (Fact.rel f, Fact.arity f) rel_ids in
  let ids = ref (Elem.Map.singleton q.free 0) in
  let next = ref 1 in
  let var v =
    match Elem.Map.find_opt v !ids with
    | Some i -> i
    | None ->
        let i = !next in
        ids := Elem.Map.add v i !ids;
        incr next;
        i
  in
  let atoms =
    List.map
      (fun f ->
        let args = Fact.args f in
        Array.init
          (Array.length args + 1)
          (fun i -> if i = 0 then rel_id f else var args.(i - 1)))
      facts
  in
  (rels, !next, Array.of_list atoms)

(* Color refinement on the numbered variables, starting from the free
   variable against the rest. Each round's signature of a variable is
   its color followed by, per atom containing it and in sorted order,
   the atom's relation, its arguments' colors and the bit mask of the
   variable's positions. Colors are ranks of sorted signatures, so they
   are isomorphism invariants; rounds repeat while the partition
   splits, and the free variable keeps color 0. *)
let refine_colors ~nvars atoms =
  let rank sigs =
    let order = Array.init nvars (fun v -> v) in
    Array.stable_sort (fun u v -> compare_int_arrays sigs.(u) sigs.(v)) order;
    let color = Array.make nvars 0 in
    let classes = ref 0 in
    Array.iteri
      (fun i v ->
        if i > 0 && compare_int_arrays sigs.(order.(i - 1)) sigs.(v) <> 0 then
          incr classes;
        color.(v) <- !classes)
      order;
    (color, !classes + 1)
  in
  let rec refine (color, k) =
    Budget.tick ~what:"cq: color refinement" ();
    let signature v =
      let contributions =
        Array.fold_left
          (fun acc a ->
            let mask = ref 0 in
            Array.iteri
              (fun i x -> if i > 0 && x = v then mask := !mask lor (1 lsl i))
              a;
            if !mask = 0 then acc
            else
              Array.init
                (Array.length a + 1)
                (fun i ->
                  if i = 0 then a.(0)
                  else if i = Array.length a then !mask
                  else color.(a.(i)))
              :: acc)
          [] atoms
      in
      Array.concat
        ([| color.(v) |] :: List.sort compare_int_arrays contributions)
    in
    let color', k' = rank (Array.init nvars signature) in
    if k' > k then refine (color', k') else color
  in
  refine (rank (Array.init nvars (fun v -> [| min v 1 |])))

(* Minimum over the renamings that give the variables of color class i
   the names right after those of class i-1, trying every order within
   each class, of the concatenated sorted atom encodings. *)
let min_encoding ~nvars ~color atoms =
  let order = Array.init nvars (fun v -> v) in
  Array.stable_sort (fun u v -> Int.compare color.(u) color.(v)) order;
  (* Colors are ranks, so class [c] ends at [class_end.(c)] in [order]. *)
  let class_end = Array.make nvars 0 in
  Array.iteri (fun i v -> class_end.(color.(v)) <- i + 1) order;
  let name = Array.make nvars 0 in
  let best = ref None in
  let evaluate () =
    Array.iteri (fun i v -> name.(v) <- i) order;
    let enc =
      Array.map
        (fun a -> Array.mapi (fun i x -> if i = 0 then x else name.(x)) a)
        atoms
    in
    Array.sort compare_int_arrays enc;
    let enc = Array.concat (Array.to_list enc) in
    match !best with
    | Some b when compare_int_arrays b enc <= 0 -> ()
    | _ -> best := Some enc
  in
  let swap i j =
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  in
  (* Permute order.(i..hi-1) — the rest of the current class — then
     move on to the class starting at [hi]. *)
  let rec permute i hi =
    Budget.tick ~what:"cq: canonical renaming search" ();
    if i >= nvars then evaluate ()
    else if i >= hi then permute i class_end.(color.(order.(i)))
    else
      for j = i to hi - 1 do
        swap i j;
        permute (i + 1) hi;
        swap i j
      done
  in
  permute 0 0;
  Option.get !best

(* Rendering as unsigned varints (7 bits per byte, high bit = more),
   a prefix-free code, so distinct encodings give distinct strings. *)
let render_encoding rels enc =
  let buf = Buffer.create 64 in
  (* cqlint: allow R1 — recursion bounded by the 63 bits of an int *)
  let rec add_int x =
    if x < 128 then Buffer.add_char buf (Char.unsafe_chr x)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (128 lor (x land 127)));
      add_int (x lsr 7)
    end
  in
  add_int (List.length rels);
  List.iter
    (fun (r, ar) ->
      add_int (String.length r);
      Buffer.add_string buf r;
      add_int ar)
    rels;
  Array.iter add_int enc;
  Buffer.contents buf

(* Isomorphism-canonical string: the minimum integer encoding over the
   color-respecting renamings, rendered once. Most small queries have
   singleton color classes, so the search is near-linear; the
   deterministic renaming is used above 10 existential variables. *)
let iso_canonical_string q =
  let rels, nvars, atoms = encode q in
  if nvars - 1 > 10 then render_plain q
  else
    let color = refine_colors ~nvars atoms in
    render_encoding rels (min_encoding ~nvars ~color atoms)

let equal q1 q2 = Elem.equal q1.free q2.free && Db.equal q1.canon q2.canon

let compare q1 q2 =
  let c = Elem.compare q1.free q2.free in
  if c <> 0 then c else Db.compare q1.canon q2.canon

let to_string q =
  let q = rename_canonically q in
  let body =
    match atoms q with
    | [] -> "true"
    | ats -> String.concat ", " (List.map Fact.to_string ats)
  in
  Printf.sprintf "%s :- %s" (Elem.to_string q.free) body

let pp fmt q = Format.pp_print_string fmt (to_string q)
