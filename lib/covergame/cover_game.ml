(* Greatest-fixpoint decision of the existential k-cover game.

   Positions are partial homomorphisms keyed by (covered-set index,
   assignment). Two kill conditions drive a worklist:
   - forth: a position with domain X dies when, for some element a with
     X ∪ {a} still k-covered, none of its one-element extensions by a
     is alive (Spoiler pebbles a and Duplicator has no answer);
   - restriction-closure: a position dies when one of its one-element
     restrictions died (Spoiler removes pebbles first, then wins from
     the smaller position).
   Duplicator wins iff the empty position survives the fixpoint. *)

let set_key s = Elem.Set.elements s

(* All k-covered subsets of dom(d): every subset of a union of at most
   k facts. Returns the sets plus a membership table. *)
let covered_sets ~k d =
  let facts = Array.of_list (Db.facts d) in
  let nf = Array.length facts in
  let seen = Hashtbl.create 256 in
  let out = ref [] in
  let add s =
    let key = set_key s in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := s :: !out
    end
  in
  let rec subsets elems current =
    Budget.tick ~what:"cover game: covered sets" ();
    match elems with
    | [] -> add current
    | e :: rest ->
        subsets rest current;
        subsets rest (Elem.Set.add e current)
  in
  let rec unions start depth current =
    Budget.tick ~what:"cover game: union enumeration" ();
    subsets (Elem.Set.elements current) Elem.Set.empty;
    if depth < k then
      for i = start to nf - 1 do
        unions (i + 1) (depth + 1)
          (Elem.Set.union current (Fact.elems facts.(i)))
      done
  in
  unions 0 0 Elem.Set.empty;
  (!out, seen)

let covered_subsets ~k d = fst (covered_sets ~k d)

(* Partial homomorphisms with domain exactly [x] (a k-covered set),
   forced on pinned elements, respecting the facts of [d] lying inside
   x ∪ pinned. *)
let positions_of_set ~d ~d' ~pin x =
  let pin_dom =
    Elem.Map.fold (fun a _ acc -> Elem.Set.add a acc) pin Elem.Set.empty
  in
  let scope = Elem.Set.union x pin_dom in
  let facts_in =
    List.filter
      (fun f -> Elem.Set.subset (Fact.elems f) scope)
      (List.concat_map
         (fun e -> Db.facts_with_elem e d)
         (Elem.Set.elements scope))
  in
  let facts_in = List.sort_uniq Fact.compare facts_in in
  let dom_d' = Elem.Set.elements (Db.domain d') in
  let elems = Elem.Set.elements x in
  let check asg =
    (* Facts whose elements are all assigned must map into d'. *)
    List.for_all
      (fun f ->
        let ok = ref true in
        let mapped =
          Array.map
            (fun a ->
              match Elem.Map.find_opt a asg with
              | Some v -> v
              | None ->
                  ok := false;
                  a)
            (Fact.args f)
        in
        (not !ok) || Db.mem (Fact.make (Fact.rel f) mapped) d')
      facts_in
  in
  let results = ref [] in
  let rec assign todo asg =
    Budget.tick ~what:"cover game: positions" ();
    match todo with
    | [] -> results := asg :: !results
    | e :: rest -> begin
        match Elem.Map.find_opt e pin with
        | Some v ->
            let asg' = Elem.Map.add e v asg in
            if check asg' then assign rest asg'
        | None ->
            List.iter
              (fun v ->
                let asg' = Elem.Map.add e v asg in
                if check asg' then assign rest asg')
              dom_d'
      end
  in
  let seed = pin in
  if check seed then assign elems seed;
  (* Strip the pinned-but-not-pebbled entries so that the stored
     assignment has domain exactly x. *)
  List.map
    (fun asg -> Elem.Map.filter (fun a _ -> Elem.Set.mem a x) asg)
    !results

(* The [check] above re-verifies all facts at every step; acceptable
   for the small scopes of covered sets (≤ k·arity + |pin| elements). *)

(* Shared context: everything about the game between d and d' that
   does not depend on the pinned tuple — the covered sets, the full
   unpinned position lattice and its parent/child links. A pinned
   query then only filters the initially-alive positions and reruns
   the kill propagation, which makes the n^2 games of [preorder] and
   the per-entity games of Algorithm 1 dramatically cheaper.

   The links are stored flat. Every (position, legal pebble addition
   to its set) pair owns an integer slot: the slots of position p are
   [slot_off.(p) .. slot_off.(p+1) - 1]. A pinned query keeps one
   surviving-extension counter per slot in an [int array]. Children
   and parent slots are in compressed rows: the children of p are
   [child_ids.(child_off.(p) .. child_off.(p+1) - 1)], and likewise
   the parent slots p extends are read through [par_off]/[par_slots]. *)

type context = {
  d : Db.t;
  d' : Db.t;
  set_arr : Elem.Set.t array;
  pos_set : int array;  (* per position: its covered-set index *)
  pos_asg : Elem.t Elem.Map.t array;  (* per position: the mapping *)
  slot_off : int array;  (* per position: first slot; length n + 1 *)
  slot_pos : int array;  (* per slot: the position owning it *)
  child_off : int array;
  child_ids : int array;  (* one-element extensions of each position *)
  par_off : int array;
  par_slots : int array;  (* per position: the parent slots it fills *)
  empty_pos : int option;  (* id of the empty position *)
}

(* Compressed rows of per-row lists: offsets (length rows + 1) and the
   concatenated entries. *)
let compress rows =
  let off = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun i l -> off.(i + 1) <- off.(i) + List.length l) rows;
  let flat = Array.make off.(Array.length rows) 0 in
  Array.iteri (fun i l -> List.iteri (fun j v -> flat.(off.(i) + j) <- v) l) rows;
  (off, flat)

let make_context ~k d d' =
  if k < 1 then invalid_arg "Cover_game.make_context: k must be >= 1";
  let sets, set_tbl = covered_sets ~k d in
  let set_arr = Array.of_list sets in
  let nsets = Array.length set_arr in
  let set_index = Hashtbl.create 256 in
  Array.iteri (fun i s -> Hashtbl.replace set_index (set_key s) i) set_arr;
  let covered s = Hashtbl.mem set_tbl (set_key s) in
  (* per set: the legal pebble additions, numbered in domain order *)
  let ext_index = Array.make nsets Elem.Map.empty in
  let dom_list = Elem.Set.elements (Db.domain d) in
  for si = 0 to nsets - 1 do
    Budget.tick ~what:"cover game: valid extensions" ();
    let x = set_arr.(si) in
    ext_index.(si) <-
      List.filter
        (fun a -> (not (Elem.Set.mem a x)) && covered (Elem.Set.add a x))
        dom_list
      |> List.mapi (fun i a -> (a, i))
      |> List.to_seq |> Elem.Map.of_seq
  done;
  let pos_tbl = Hashtbl.create 1024 in
  let pos_list = ref [] in
  let npos = ref 0 in
  for si = 0 to nsets - 1 do
    let x = set_arr.(si) in
    let homs = positions_of_set ~d ~d' ~pin:Elem.Map.empty x in
    List.iter
      (fun asg ->
        let key = (si, Elem.Map.bindings asg) in
        if not (Hashtbl.mem pos_tbl key) then begin
          Hashtbl.replace pos_tbl key !npos;
          pos_list := (si, asg) :: !pos_list;
          incr npos
        end)
      homs
  done;
  let positions = Array.of_list (List.rev !pos_list) in
  let n = !npos in
  let pos_set = Array.map fst positions in
  let pos_asg = Array.map snd positions in
  let slot_off = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    Budget.tick ~what:"cover game: extension slots" ();
    slot_off.(p + 1) <- slot_off.(p) + Elem.Map.cardinal ext_index.(pos_set.(p))
  done;
  let slot_pos = Array.make slot_off.(n) 0 in
  for p = 0 to n - 1 do
    Budget.tick ~what:"cover game: extension slots" ();
    Array.fill slot_pos slot_off.(p) (slot_off.(p + 1) - slot_off.(p)) p
  done;
  let children = Array.make n [] in
  let parent_slots = Array.make n [] in
  Array.iteri
    (fun id (si, asg) ->
      let x = set_arr.(si) in
      Elem.Set.iter
        (fun c ->
          let px = Elem.Set.remove c x in
          match Hashtbl.find_opt set_index (set_key px) with
          | None -> () (* unreachable: subsets of covered sets are covered *)
          | Some psi -> (
              let pkey = (psi, Elem.Map.bindings (Elem.Map.remove c asg)) in
              match Hashtbl.find_opt pos_tbl pkey with
              | None -> () (* unreachable: restrictions of homs are homs *)
              | Some pid ->
                  let slot = slot_off.(pid) + Elem.Map.find c ext_index.(psi) in
                  children.(pid) <- id :: children.(pid);
                  parent_slots.(id) <- slot :: parent_slots.(id)))
        x)
    positions;
  let child_off, child_ids = compress children in
  let par_off, par_slots = compress parent_slots in
  let empty_pos =
    match Hashtbl.find_opt set_index [] with
    | None -> None
    | Some esi -> Hashtbl.find_opt pos_tbl (esi, [])
  in
  { d; d'; set_arr; pos_set; pos_asg; slot_off; slot_pos; child_off;
    child_ids; par_off; par_slots; empty_pos }

(* Does the image of fact [f] of [d] under (pin ∪ asg) lie in [d']?
   Every element of [f] must be pinned or assigned. *)
let maps_into ctx ~pin asg f =
  let image a =
    match Elem.Map.find_opt a pin with
    | Some v -> v
    | None -> Elem.Map.find a asg
  in
  Db.mem (Fact.make (Fact.rel f) (Array.map image (Fact.args f))) ctx.d'

(* Is a stored unpinned position compatible with the pin: pinned
   elements it pebbles must carry the pinned values, and the facts of
   [d] inside (its set ∪ pinned elements) that touch a pinned element
   must map into [d'] under (assignment ∪ pin). [set_check] gives, per
   covered set, whether it pebbles a pinned element and those facts
   that also touch an unpinned one; facts on pinned elements alone are
   the same for every position and checked once by the caller. *)
let pin_compatible ctx ~pin ~set_check id =
  let asg = ctx.pos_asg.(id) in
  let pebbles_pin, facts = set_check ctx.pos_set.(id) in
  ((not pebbles_pin)
  || Elem.Map.for_all
       (fun a b ->
         match Elem.Map.find_opt a asg with
         | Some v -> Elem.equal v b
         | None -> true)
       pin)
  && List.for_all (maps_into ctx ~pin asg) facts

let holds_ctx ctx ~pin:pin_list =
  (* A pin mapping one element to two targets is not a function. *)
  let consistent = ref true in
  let pin =
    List.fold_left
      (fun acc (a, b) ->
        match Elem.Map.find_opt a acc with
        | Some b' when not (Elem.equal b b') ->
            consistent := false;
            acc
        | _ -> Elem.Map.add a b acc)
      Elem.Map.empty pin_list
  in
  if not !consistent then false
  else begin
    let pin = Elem.Map.filter (fun a _ -> Elem.Set.mem a (Db.domain ctx.d)) pin in
    let pin_dom =
      Elem.Map.fold (fun a _ acc -> Elem.Set.add a acc) pin Elem.Set.empty
    in
    (* facts of d touching a pinned element *)
    let pinned_only, mixed_pool =
      List.sort_uniq Fact.compare
        (Elem.Map.fold
           (fun a _ acc -> Db.facts_with_elem a ctx.d @ acc)
           pin [])
      |> List.partition (fun f -> Elem.Set.subset (Fact.elems f) pin_dom)
    in
    let set_checks = Array.make (Array.length ctx.set_arr) None in
    let set_check si =
      match set_checks.(si) with
      | Some c -> c
      | None ->
          let x = ctx.set_arr.(si) in
          let scope = Elem.Set.union x pin_dom in
          let c =
            ( not (Elem.Set.disjoint x pin_dom),
              List.filter
                (fun f -> Elem.Set.subset (Fact.elems f) scope)
                mixed_pool )
          in
          set_checks.(si) <- Some c;
          c
    in
    let n = Array.length ctx.pos_set in
    (* a pin whose own facts do not map kills every position *)
    if n = 0 || not (List.for_all (maps_into ctx ~pin Elem.Map.empty) pinned_only)
    then false
    else begin
      let alive = Array.make n false in
      for id = 0 to n - 1 do
        Budget.tick ~what:"cover game: pin filter" ();
        alive.(id) <- pin_compatible ctx ~pin ~set_check id
      done;
      (* surviving-extension counts per slot *)
      let count = Array.make (Array.length ctx.slot_pos) 0 in
      for id = 0 to n - 1 do
        Budget.tick ~what:"cover game: extension counts" ();
        if alive.(id) then
          (* cqlint: allow R1 — bounded by the position's parent links *)
          for i = ctx.par_off.(id) to ctx.par_off.(id + 1) - 1 do
            let s = ctx.par_slots.(i) in
            count.(s) <- count.(s) + 1
          done
      done;
      let queue = Queue.create () in
      let kill id =
        if alive.(id) then begin
          alive.(id) <- false;
          Queue.add id queue
        end
      in
      let kill_children id =
        (* cqlint: allow R1 — bounded by the position's child links *)
        for i = ctx.child_off.(id) to ctx.child_off.(id + 1) - 1 do
          kill ctx.child_ids.(i)
        done
      in
      (* initial forth failures *)
      for id = 0 to n - 1 do
        Budget.tick ~what:"cover game: forth check" ();
        if alive.(id) then
          (* cqlint: allow R1 — bounded by the position's extension slots *)
          for s = ctx.slot_off.(id) to ctx.slot_off.(id + 1) - 1 do
            if count.(s) = 0 then kill id
          done
      done;
      (* also: dead-by-pin positions must still drag down their
         parents' counts — handled above since counts only include
         alive children — and their restriction-closure effect: a dead
         position's children must die. Enqueue dead ones' children. *)
      for id = 0 to n - 1 do
        Budget.tick ~what:"cover game: kill propagation" ();
        if not alive.(id) then kill_children id
      done;
      while not (Queue.is_empty queue) do
        Budget.tick ~what:"cover game: kill propagation" ();
        let id = Queue.pop queue in
        kill_children id;
        (* cqlint: allow R1 — bounded by the position's parent links *)
        for i = ctx.par_off.(id) to ctx.par_off.(id + 1) - 1 do
          let s = ctx.par_slots.(i) in
          let pid = ctx.slot_pos.(s) in
          if alive.(pid) then begin
            count.(s) <- count.(s) - 1;
            if count.(s) <= 0 then kill pid
          end
        done
      done;
      match ctx.empty_pos with Some id -> alive.(id) | None -> false
    end
  end

let holds ~k (d, tuple) (d', tuple') =
  if List.length tuple <> List.length tuple' then
    invalid_arg "Cover_game.holds: tuples of different lengths";
  holds_ctx (make_context ~k d d') ~pin:(List.combine tuple tuple')

let holds1 ~k (d, a) (d', b) = holds ~k (d, [ a ]) (d', [ b ])
let boolean ~k d d' = holds ~k (d, []) (d', [])

let preorder ?(transitive_pruning = true) ~k d entities =
  let ents = Array.of_list entities in
  let n = Array.length ents in
  let m = Array.make_matrix n n false in
  (* →_k is reflexive and transitive; fill the matrix with closure
     pruning: once m.(i).(j) and m.(j).(l) are known, m.(i).(l) is
     forced true. [transitive_pruning] exists only so the ablation
     bench can measure what the pruning saves. *)
  let known = Array.make_matrix n n false in
  let set i j v =
    if not known.(i).(j) then begin
      known.(i).(j) <- true;
      m.(i).(j) <- v
    end
  in
  let ctx = make_context ~k d d in
  if transitive_pruning then
    (* cqlint: allow R1 — loop bounded by the entity count *)
    for i = 0 to n - 1 do
      set i i true
    done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not known.(i).(j) then begin
        let v = holds_ctx ctx ~pin:[ (ents.(i), ents.(j)) ] in
        set i j v;
        if v && transitive_pruning then
          (* cqlint: allow R1 — closure pass bounded by the entity count *)
          for l = 0 to n - 1 do
            if known.(j).(l) && m.(j).(l) then set i l true;
            if known.(l).(i) && m.(l).(i) then set l j true
          done
      end
    done
  done;
  m

let default_budget = function
  | Some b -> b
  | None -> Budget.installed ()

let holds_b ?budget ~k (d, tuple) (d', tuple') =
  Guard.run (default_budget budget) (fun () -> holds ~k (d, tuple) (d', tuple'))

let preorder_b ?budget ?transitive_pruning ~k d entities =
  Guard.run (default_budget budget) (fun () ->
      preorder ?transitive_pruning ~k d entities)

let equiv_classes ~k d entities =
  let ents = Array.of_list entities in
  let n = Array.length ents in
  let m = preorder ~k d entities in
  let assigned = Array.make n false in
  let classes = ref [] in
  (* cqlint: allow R1 — grouping pass bounded by the entity count *)
  for i = 0 to n - 1 do
    if not assigned.(i) then begin
      let cls = ref [] in
      (* cqlint: allow R1 — grouping pass bounded by the entity count *)
      for j = n - 1 downto 0 do
        if (not assigned.(j)) && m.(i).(j) && m.(j).(i) then begin
          assigned.(j) <- true;
          cls := ents.(j) :: !cls
        end
      done;
      (* The representative e_i comes first. *)
      let cls =
        ents.(i) :: List.filter (fun e -> not (Elem.equal e ents.(i))) !cls
      in
      classes := cls :: !classes
    end
  done;
  List.rev !classes
