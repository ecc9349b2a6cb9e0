(* Bitset-based exact search. Existential variables are indexed into
   bit positions; atoms become edge masks; the recursion is the classic
   memoized separator decomposition over the primal graph, with
   candidate bags restricted to sets coverable by at most k atoms. *)

let index_vars q =
  let ex = Elem.Set.elements (Cq.existential_vars q) in
  let n = List.length ex in
  if n > 62 then
    invalid_arg "Cq_decomp: more than 62 existential variables";
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace tbl v i) ex;
  (n, tbl)

let edge_masks q tbl =
  List.map
    (fun atom ->
      Elem.Set.fold
        (fun v acc ->
          match Hashtbl.find_opt tbl v with
          | Some i -> acc lor (1 lsl i)
          | None -> acc (* the free variable: needs no covering *))
        (Fact.elems atom) 0)
    (Cq.atoms q)

(* --- GYO reduction -------------------------------------------------- *)

let is_free_acyclic q =
  let _, tbl = index_vars q in
  let edges = ref (List.filter (fun m -> m <> 0) (edge_masks q tbl)) in
  let changed = ref true in
  while !changed do
    Budget.tick ~what:"cq decomp: GYO reduction" ();
    changed := false;
    (* Remove vertices occurring in exactly one edge. *)
    let occurrences = Hashtbl.create 16 in
    List.iter
      (fun m ->
        (* cqlint: allow R1 — recursion bounded by the 62 bits of a mask *)
        let rec bits m i =
          if m <> 0 then begin
            if m land 1 = 1 then begin
              let c =
                match Hashtbl.find_opt occurrences i with
                | Some c -> c
                | None -> 0
              in
              Hashtbl.replace occurrences i (c + 1)
            end;
            bits (m lsr 1) (i + 1)
          end
        in
        bits m 0)
      !edges;
    let lonely =
      (* cqlint: allow R6 — lor is commutative and associative: fold order cannot change the mask *)
      Hashtbl.fold
        (fun i c acc -> if c = 1 then acc lor (1 lsl i) else acc)
        occurrences 0
    in
    if lonely <> 0 then begin
      let edges' =
        List.filter (fun m -> m <> 0)
          (List.map (fun m -> m land lnot lonely) !edges)
      in
      if edges' <> !edges then begin
        edges := edges';
        changed := true
      end
    end;
    (* Remove edges contained in another edge (including duplicates). *)
    (* cqlint: allow R1 — one pass over the edge list, bounded by the atom count *)
    let rec drop_contained acc = function
      | [] -> List.rev acc
      | m :: rest ->
          let contained =
            List.exists (fun m' -> m land m' = m) rest
            || List.exists (fun m' -> m land m' = m) acc
          in
          if contained then begin
            changed := true;
            drop_contained acc rest
          end
          else drop_contained (m :: acc) rest
    in
    edges := drop_contained [] !edges
  done;
  !edges = []

(* --- generalized hypertree width ------------------------------------ *)

let ghw_le q k =
  if k < 0 then invalid_arg "Cq_decomp.ghw_le: negative k";
  let n, tbl = index_vars q in
  let edges = Array.of_list (edge_masks q tbl) in
  let all = (1 lsl n) - 1 in
  (* coverable s: can s be covered by at most k edges? *)
  let cover_memo = Hashtbl.create 256 in
  let rec coverable s budget =
    Budget.tick ~what:"cq decomp: cover search" ();
    if s = 0 then true
    else if budget = 0 then false
    else begin
      match Hashtbl.find_opt cover_memo (s, budget) with
      | Some r -> r
      | None ->
          let v = s land -s in
          let r =
            Array.exists
              (fun e -> e land v <> 0 && coverable (s land lnot e) (budget - 1))
              edges
          in
          Hashtbl.add cover_memo (s, budget) r;
          r
    end
  in
  (* Primal adjacency. *)
  let adj = Array.make n 0 in
  Array.iter
    (fun e ->
      (* cqlint: allow R1 — loop bounded by the variable count, at most 62 *)
      for i = 0 to n - 1 do
        if e land (1 lsl i) <> 0 then adj.(i) <- adj.(i) lor (e land lnot (1 lsl i))
      done)
    edges;
  let neighbors mask =
    let acc = ref 0 in
    (* cqlint: allow R1 — loop bounded by the variable count, at most 62 *)
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then acc := !acc lor adj.(i)
    done;
    !acc land lnot mask
  in
  let components mask =
    let comp_of seed =
      let frontier = ref seed and region = ref seed in
      (* cqlint: allow R1 — each pass grows the region, at most 62 passes *)
      while !frontier <> 0 do
        let next = neighbors !region land mask in
        frontier := next land lnot !region;
        region := !region lor !frontier
      done;
      !region
    in
    (* cqlint: allow R1 — one component per call, at most 62 components *)
    let rec go mask acc =
      if mask = 0 then acc
      else begin
        let seed = mask land -mask in
        let c = comp_of seed in
        go (mask land lnot c) (c :: acc)
      end
    in
    go mask []
  in
  let memo = Hashtbl.create 256 in
  (* solve c b: can the component c with boundary b (= N(c)) be
     decomposed with k-coverable bags? *)
  let rec solve c b =
    Budget.tick ~what:"cq decomp: separator search" ();
    if c = 0 then true
    else begin
      match Hashtbl.find_opt memo (c, b) with
      | Some r -> r
      | None ->
          Hashtbl.add memo (c, b) false (* cycle guard; overwritten below *)
          ;
          let ok = ref false in
          (* Enumerate nonempty submasks t of c; bag = b ∪ t. *)
          let t = ref c in
          while (not !ok) && !t <> 0 do
            let bag = b lor !t in
            if coverable bag k then begin
              let rest = c land lnot !t in
              let comps = components rest in
              if List.for_all (fun c' -> solve c' (neighbors c')) comps then
                ok := true
            end;
            t := (!t - 1) land c
          done;
          Hashtbl.replace memo (c, b) !ok;
          !ok
    end
  in
  List.for_all (fun c -> solve c 0) (components all)

(* ghw is a pure function of the query and each [ghw_le] probe is an
   exponential search, so memoize on the printed form (printing is
   injective up to syntactic identity, which is exactly the reuse we
   want). Inserted only after the full upward search completes, so an
   abort mid-probe never caches a wrong width. *)
let ghw_cache : (string, int) Hashtbl.t = Hashtbl.create 64

let () =
  Runtime_state.register ~name:"cq_decomp.ghw_cache"
    ~validate:(fun () -> Hashtbl.fold (fun _ k ok -> ok && k >= 0) ghw_cache true)
    (fun () -> Hashtbl.reset ghw_cache)

let ghw q =
  let key = Cq.to_string q in
  match Hashtbl.find_opt ghw_cache key with
  | Some k -> k
  | None ->
      let upper = max 0 (Cq.num_atoms q) in
      let rec go k =
        if k > upper then upper else if ghw_le q k then k else go (k + 1)
      in
      let k = go 0 in
      Hashtbl.replace ghw_cache key k;
      k

(* --- decomposition extraction ---------------------------------------- *)

type decomp = {
  bag : Elem.Set.t;
  cover : Fact.t list;
  children : decomp list;
}

(* Same recursion as [ghw_le], but memoizing witnessing subtrees and
   reconstructing a cover for each chosen bag. *)
let decomposition q ~k =
  if k < 0 then invalid_arg "Cq_decomp.decomposition: negative k";
  let n, tbl = index_vars q in
  let atoms = Array.of_list (Cq.atoms q) in
  let edges = Array.of_list (edge_masks q tbl) in
  (* Map bit positions back to variables. *)
  let var_of_bit = Array.make n Cq.default_free in
  (* cqlint: allow R6 — each iteration writes a distinct array slot (the index is injective) *)
  Hashtbl.iter (fun v i -> var_of_bit.(i) <- v) tbl;
  let set_of_mask mask =
    let s = ref Elem.Set.empty in
    (* cqlint: allow R1 — loop bounded by the variable count, at most 62 *)
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then s := Elem.Set.add var_of_bit.(i) !s
    done;
    !s
  in
  let all = (1 lsl n) - 1 in
  (* Greedy-with-backtracking cover returning the witnessing atoms. *)
  let rec cover_of s budget =
    Budget.tick ~what:"cq decomp: cover extraction" ();
    if s = 0 then Some []
    else if budget = 0 then None
    else begin
      let v = s land -s in
      let found = ref None in
      Array.iteri
        (fun i e ->
          if !found = None && e land v <> 0 then
            match cover_of (s land lnot e) (budget - 1) with
            | Some rest -> found := Some (atoms.(i) :: rest)
            | None -> ())
        edges;
      !found
    end
  in
  let adj = Array.make n 0 in
  Array.iter
    (fun e ->
      (* cqlint: allow R1 — loop bounded by the variable count, at most 62 *)
      for i = 0 to n - 1 do
        if e land (1 lsl i) <> 0 then
          adj.(i) <- adj.(i) lor (e land lnot (1 lsl i))
      done)
    edges;
  let neighbors mask =
    let acc = ref 0 in
    (* cqlint: allow R1 — loop bounded by the variable count, at most 62 *)
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then acc := !acc lor adj.(i)
    done;
    !acc land lnot mask
  in
  let components mask =
    let comp_of seed =
      let frontier = ref seed and region = ref seed in
      (* cqlint: allow R1 — each pass grows the region, at most 62 passes *)
      while !frontier <> 0 do
        let next = neighbors !region land mask in
        frontier := next land lnot !region;
        region := !region lor !frontier
      done;
      !region
    in
    (* cqlint: allow R1 — one component per call, at most 62 components *)
    let rec go mask acc =
      if mask = 0 then acc
      else begin
        let seed = mask land -mask in
        let c = comp_of seed in
        go (mask land lnot c) (c :: acc)
      end
    in
    go mask []
  in
  let memo : (int * int, decomp option) Hashtbl.t = Hashtbl.create 256 in
  let rec solve c b =
    Budget.tick ~what:"cq decomp: separator search" ();
    match Hashtbl.find_opt memo (c, b) with
    | Some r -> r
    | None ->
        let result = ref None in
        let t = ref c in
        while !result = None && !t <> 0 do
          let bag_mask = b lor !t in
          (match cover_of bag_mask k with
          | Some cover ->
              let rest = c land lnot !t in
              let comps = components rest in
              let subs =
                List.map (fun c' -> solve c' (neighbors c')) comps
              in
              if List.for_all (fun s -> s <> None) subs then
                result :=
                  Some
                    {
                      bag = set_of_mask bag_mask;
                      cover;
                      children =
                        List.filter_map (fun s -> s) subs;
                    }
          | None -> ());
          t := (!t - 1) land c
        done;
        Hashtbl.add memo (c, b) !result;
        !result
  in
  let comps = components all in
  let roots = List.map (fun c -> solve c 0) comps in
  if List.for_all (fun r -> r <> None) roots then
    Some (List.filter_map (fun r -> r) roots)
  else None

let check_decomposition q ~k forest =
  let ex = Cq.existential_vars q in
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec nodes d = d :: List.concat_map nodes d.children in
  let all_nodes = List.concat_map nodes forest in
  (* (1) every atom's existential vars inside some bag *)
  let atoms_ok =
    List.for_all
      (fun atom ->
        let evars = Elem.Set.inter (Fact.elems atom) ex in
        Elem.Set.is_empty evars
        || List.exists (fun d -> Elem.Set.subset evars d.bag) all_nodes)
      (Cq.atoms q)
  in
  (* (2) connectivity: within each tree, the nodes holding a variable
     form a connected subtree; across trees a variable appears in at
     most one tree. *)
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec connected_for v d =
    (* returns (contains_somewhere, is_connected_as_single_segment) *)
    let child_results = List.map (connected_for v) d.children in
    let here = Elem.Set.mem v d.bag in
    let containing_children =
      List.filter (fun (c, _) -> c) child_results
    in
    let all_conn = List.for_all (fun (_, ok) -> ok) child_results in
    if here then
      ( true,
        all_conn
        && List.for_all
             (fun ((c, _), child) -> (not c) || Elem.Set.mem v child.bag)
             (List.combine child_results d.children) )
    else begin
      match containing_children with
      | [] -> (false, all_conn)
      | [ _ ] -> (true, all_conn)
      | _ -> (true, false)
      (* two disjoint segments below a node not containing v *)
    end
  in
  let connectivity_ok =
    Elem.Set.for_all
      (fun v ->
        let per_tree = List.map (connected_for v) forest in
        let trees_with_v = List.filter (fun (c, _) -> c) per_tree in
        List.length trees_with_v <= 1
        && List.for_all (fun (_, ok) -> ok) per_tree)
      ex
  in
  (* (3) covers are small and actually cover *)
  let covers_ok =
    List.for_all
      (fun d ->
        List.length d.cover <= k
        && Elem.Set.subset d.bag
             (List.fold_left
                (fun acc f -> Elem.Set.union acc (Fact.elems f))
                Elem.Set.empty d.cover)
        && List.for_all
             (fun f -> List.exists (Fact.equal f) (Cq.atoms q))
             d.cover)
      all_nodes
  in
  atoms_ok && connectivity_ok && covers_ok
