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

(* Partial homomorphisms with domain exactly [x] (a k-covered set): the
   maps under which every fact of [d] inside [x] lands in [d']. Elements
   are assigned in increasing order and each fact is checked once, by
   its greatest element, which completes it. An element that completes
   a fact takes its candidates from the facts of [d'] that match the
   first such fact on the elements assigned so far (the facts through
   the image of an assigned argument, or all facts of the relation);
   only an element completing no fact ranges over all of [dom d']. *)
let positions_of_set ~d ~d' x =
  let completed_by e =
    let completes f =
      Array.for_all
        (fun a -> Elem.Set.mem a x && Elem.compare a e <= 0)
        (Fact.args f)
    in
    let linked f =
      Array.exists (fun a -> not (Elem.equal a e)) (Fact.args f)
    in
    (* facts linking [e] to assigned elements narrow best, so go first *)
    let linked, alone =
      List.partition linked (List.filter completes (Db.facts_with_elem e d))
    in
    linked @ alone
  in
  let dom_d' = Elem.Set.elements (Db.domain d') in
  let maps asg f =
    Db.mem
      (Fact.make (Fact.rel f)
         (Array.map (fun a -> Elem.Map.find a asg) (Fact.args f)))
      d'
  in
  (* the values of [e] under which [f] maps onto a fact of [d'] *)
  let candidates asg e f =
    let args = Fact.args f in
    let pool =
      match Array.find_opt (fun a -> not (Elem.equal a e)) args with
      | Some a -> Db.facts_with_elem (Elem.Map.find a asg) d'
      | None -> Db.facts_of_rel (Fact.rel f) d'
    in
    let value_in g =
      let img = Fact.args g in
      let v = ref None in
      let ok =
        ref
          (String.equal (Fact.rel g) (Fact.rel f)
          && Array.length img = Array.length args)
      in
      if !ok then
        Array.iteri
          (fun i a ->
            if not (Elem.equal a e) then
              ok := !ok && Elem.equal (Elem.Map.find a asg) img.(i)
            else
              match !v with
              | None -> v := Some img.(i)
              | Some w -> ok := !ok && Elem.equal w img.(i))
          args;
      if !ok then !v else None
    in
    List.filter_map value_in pool
  in
  let results = ref [] in
  let rec assign todo asg =
    Budget.tick ~what:"cover game: positions" ();
    match todo with
    | [] -> results := asg :: !results
    | (e, []) :: rest ->
        List.iter (fun v -> assign rest (Elem.Map.add e v asg)) dom_d'
    | (e, f :: fs) :: rest ->
        List.iter
          (fun v ->
            let asg = Elem.Map.add e v asg in
            if List.for_all (maps asg) fs then assign rest asg)
          (candidates asg e f)
  in
  assign
    (List.map (fun e -> (e, completed_by e)) (Elem.Set.elements x))
    Elem.Map.empty;
  !results

(* Shared context: everything about the game between d and d' that
   does not depend on the pinned tuple — the full unpinned position
   lattice and its parent/child links, and the unpinned greatest
   fixpoint. A pin only removes Duplicator options,
   so every position that survives a pinned game survives the unpinned
   one: pinned queries start from the unpinned survivors.

   The links are stored flat. Every (position, legal pebble addition
   to its set) pair owns an integer slot: the slots of position p are
   [slot_off.(p) .. slot_off.(p+1) - 1]. A fixpoint run keeps one
   surviving-extension counter per slot in an [int array]. Children
   and parent slots are in compressed rows: the children of p are
   [child_ids.(child_off.(p) .. child_off.(p+1) - 1)], and likewise
   the parent slots p extends are read through [par_off]/[par_slots].

   A pinned query keeps the survivors that agree with the pin on the
   pinned elements they pebble. It need not check the facts of [d]
   through a pinned element that leave a position's set: when such a
   fact f does not map under (position ∪ pin), Spoiler restricts the
   position to the pebbles on f and pebbles the pinned elements of f
   one by one (every subset of f is covered by f itself). Each answer
   must agree with the pin, and the last one, on all of f, would map
   f. So the fixpoint kills the position anyway.

   Pinned queries are indexed by their pin domain P, the set of pinned
   elements. A survivor whose covered set avoids P is independent of
   the pin; the others are dependent. Restrictions of an independent
   position are independent, and extensions of a dependent one are
   dependent. *)

module Image_map = Map.Make (struct
  type t = Elem.t * Elem.t

  let compare (a, v) (b, w) =
    match Elem.compare a b with 0 -> Elem.compare v w | c -> c
end)

type pin_index = {
  base_alive : Bytes.t;  (* the independent survivors *)
  base_count : int array;  (* per slot: independent survivors filling it *)
  watch : int list;  (* independent survivors with a slot none of them fills *)
  by_image : int list Image_map.t;
      (* the dependent survivors, by the least pinned element they
         pebble and its image *)
}

module Dom_map = Map.Make (Elem.Set)

type context = {
  dom_d : Elem.Set.t;  (* pins outside it constrain nothing *)
  pos_asg : Elem.t Elem.Map.t array;  (* per position: the mapping *)
  slot_off : int array;  (* per position: first slot; length n + 1 *)
  slot_pos : int array;  (* per slot: the position owning it *)
  child_off : int array;
  child_ids : int array;  (* one-element extensions of each position *)
  par_off : int array;
  par_slots : int array;  (* per position: the parent slots it fills *)
  empty_pos : int option;  (* id of the empty position *)
  survivors : Bytes.t;  (* the unpinned greatest fixpoint *)
  mutable indexes : pin_index Dom_map.t;  (* one per pin domain queried *)
  alive : Bytes.t;  (* scratch state of a pinned run, overwritten by each *)
  count : int array;
}

let live = '\001'
let dead = '\000'
let is_live alive id = Bytes.get alive id = live

(* Compressed rows of per-row lists: offsets (length rows + 1) and the
   concatenated entries. *)
let compress rows =
  let off = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun i l -> off.(i + 1) <- off.(i) + List.length l) rows;
  let flat = Array.make off.(Array.length rows) 0 in
  Array.iteri (fun i l -> List.iteri (fun j v -> flat.(off.(i) + j) <- v) l) rows;
  (off, flat)

(* Per slot, the number of [alive] positions filling it. *)
let slot_counts ctx alive =
  let count = Array.make (Array.length ctx.slot_pos) 0 in
  for id = 0 to Array.length ctx.pos_asg - 1 do
    Budget.tick ~what:"cover game: extension counts" ();
    if is_live alive id then
      (* cqlint: allow R1 — bounded by the position's parent links *)
      for i = ctx.par_off.(id) to ctx.par_off.(id + 1) - 1 do
        let s = ctx.par_slots.(i) in
        count.(s) <- count.(s) + 1
      done
  done;
  count

let has_empty_slot ctx count id =
  let empty = ref false in
  (* cqlint: allow R1 — bounded by the position's extension slots *)
  for s = ctx.slot_off.(id) to ctx.slot_off.(id + 1) - 1 do
    if count.(s) = 0 then empty := true
  done;
  !empty

(* The greatest fixpoint below [alive], in place: kill every position
   that lost all answers to some pebble addition (forth) or lost a
   restriction, until none does. On entry [alive] is closed under
   restrictions, [count.(s)] is the number of alive positions filling
   slot [s], and every alive position with an empty slot is among
   [suspects]; [count] is kept exact for alive owners. *)
let fixpoint ctx alive count suspects =
  let queue = Queue.create () in
  let kill id =
    if is_live alive id then begin
      Bytes.set alive id dead;
      Queue.add id queue
    end
  in
  List.iter
    (fun id ->
      Budget.tick ~what:"cover game: fixpoint" ();
      if has_empty_slot ctx count id then kill id)
    suspects;
  while not (Queue.is_empty queue) do
    Budget.tick ~what:"cover game: fixpoint" ();
    let id = Queue.pop queue in
    (* cqlint: allow R1 — bounded by the position's child links *)
    for i = ctx.child_off.(id) to ctx.child_off.(id + 1) - 1 do
      kill ctx.child_ids.(i)
    done;
    (* cqlint: allow R1 — bounded by the position's parent links *)
    for i = ctx.par_off.(id) to ctx.par_off.(id + 1) - 1 do
      let s = ctx.par_slots.(i) in
      count.(s) <- count.(s) - 1;
      if count.(s) = 0 then kill ctx.slot_pos.(s)
    done
  done

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
    let homs = positions_of_set ~d ~d' x in
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
  let ctx =
    { dom_d = Db.domain d; pos_asg; slot_off; slot_pos; child_off;
      child_ids; par_off; par_slots; empty_pos;
      survivors = Bytes.make n live; indexes = Dom_map.empty;
      alive = Bytes.create n; count = Array.make slot_off.(n) 0 }
  in
  fixpoint ctx ctx.survivors (slot_counts ctx ctx.survivors)
    (List.init n Fun.id);
  ctx

(* The index of pin domain [dom]: split the survivors into independent
   and dependent ones, and count the slots the independent ones fill. *)
let build_index ctx dom =
  let base_alive = Bytes.copy ctx.survivors in
  let by_image = ref Image_map.empty in
  for id = Array.length ctx.pos_asg - 1 downto 0 do
    Budget.tick ~what:"cover game: pin index" ();
    let asg = ctx.pos_asg.(id) in
    let least =
      Elem.Set.fold
        (fun a least ->
          match least with
          | None when Elem.Map.mem a asg -> Some a
          | _ -> least)
        dom None
    in
    match least with
    | Some a when is_live ctx.survivors id ->
        Bytes.set base_alive id dead;
        let key = (a, Elem.Map.find a asg) in
        let ids =
          Option.value ~default:[] (Image_map.find_opt key !by_image)
        in
        by_image := Image_map.add key (id :: ids) !by_image
    | _ -> ()
  done;
  let base_count = slot_counts ctx base_alive in
  let watch = ref [] in
  for id = Array.length ctx.pos_asg - 1 downto 0 do
    Budget.tick ~what:"cover game: pin index" ();
    if is_live base_alive id && has_empty_slot ctx base_count id then
      watch := id :: !watch
  done;
  { base_alive; base_count; watch = !watch; by_image = !by_image }

(* The index is stored only once it is complete, so a budget abort
   while building it leaves the context as it was. *)
let index_for ctx dom =
  match Dom_map.find_opt dom ctx.indexes with
  | Some idx -> idx
  | None ->
      let idx = build_index ctx dom in
      ctx.indexes <- Dom_map.add dom idx ctx.indexes;
      idx

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
  match ctx.empty_pos with
  | Some root when !consistent && is_live ctx.survivors root ->
      let pin =
        Elem.Map.filter (fun a _ -> Elem.Set.mem a ctx.dom_d) pin
      in
      let idx =
        index_for ctx
          (Elem.Map.fold (fun a _ s -> Elem.Set.add a s) pin Elem.Set.empty)
      in
      (* seed from the independent survivors, then add the dependent
         ones that agree with the pin *)
      let alive = ctx.alive and count = ctx.count in
      Bytes.blit idx.base_alive 0 alive 0 (Bytes.length alive);
      Array.blit idx.base_count 0 count 0 (Array.length count);
      let suspects = ref idx.watch in
      let add id =
        Bytes.set alive id live;
        suspects := id :: !suspects;
        (* cqlint: allow R1 — bounded by the position's parent links *)
        for j = ctx.par_off.(id) to ctx.par_off.(id + 1) - 1 do
          let s = ctx.par_slots.(j) in
          count.(s) <- count.(s) + 1
        done
      in
      let agrees id =
        Elem.Map.for_all
          (fun b w ->
            match Elem.Map.find_opt b ctx.pos_asg.(id) with
            | Some u -> Elem.equal u w
            | None -> true)
          pin
      in
      Elem.Map.iter
        (fun a v ->
          List.iter
            (fun id ->
              Budget.tick ~what:"cover game: pin filter" ();
              if agrees id then add id)
            (Option.value ~default:[]
               (Image_map.find_opt (a, v) idx.by_image)))
        pin;
      fixpoint ctx alive count !suspects;
      is_live alive root
  | _ -> false

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

let equiv_classes ~k d entities =
  let ents = Array.of_list entities in
  let n = Array.length ents in
  let m = preorder ~k d entities in
  let assigned = Array.make n false in
  let classes = ref [] in
  for i = 0 to n - 1 do
    if not assigned.(i) then begin
      let cls = ref [] in
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
