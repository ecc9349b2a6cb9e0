(* Reference decision of pinned cover-game queries for the differential
   tests: the filter-everything version of [Cover_game.holds_ctx]. It
   builds the unpinned position lattice with every element ranging over
   all of dom(d'), then for each query re-filters every position
   against the pin, recounts every slot and iterates the kill rules
   over all positions until nothing changes. Slow and simple on
   purpose; it shares only [Cover_game.covered_subsets] with the
   library. *)

let set_key s = Elem.Set.elements s

let image asg f =
  Fact.make (Fact.rel f)
    (Array.map (fun a -> Elem.Map.find a asg) (Fact.args f))

(* Partial homomorphisms from [d] to [d'] with domain exactly [x]. *)
let positions_of_set ~d ~d' x =
  let facts_in =
    List.concat_map (fun e -> Db.facts_with_elem e d) (Elem.Set.elements x)
    |> List.filter (fun f -> Elem.Set.subset (Fact.elems f) x)
  in
  let check asg =
    List.for_all
      (fun f ->
        (not (Array.for_all (fun a -> Elem.Map.mem a asg) (Fact.args f)))
        || Db.mem (image asg f) d')
      facts_in
  in
  let dom_d' = Elem.Set.elements (Db.domain d') in
  let rec assign todo asg =
    match todo with
    | [] -> [ asg ]
    | e :: rest ->
        List.concat_map
          (fun v ->
            let asg = Elem.Map.add e v asg in
            if check asg then assign rest asg else [])
          dom_d'
  in
  assign (Elem.Set.elements x) Elem.Map.empty

type context = {
  d : Db.t;
  d' : Db.t;
  set_arr : Elem.Set.t array;
  pos_set : int array;
  pos_asg : Elem.t Elem.Map.t array;
  slots : int array;  (* per position: its number of legal pebble additions *)
  parents : (int * int) list array;  (* (restriction, its slot) pairs *)
  empty_pos : int option;
}

let make_context ~k d d' =
  let set_arr = Array.of_list (Cover_game.covered_subsets ~k d) in
  let set_index = Hashtbl.create 256 in
  Array.iteri (fun i s -> Hashtbl.replace set_index (set_key s) i) set_arr;
  let additions x =
    List.filter
      (fun a ->
        (not (Elem.Set.mem a x))
        && Hashtbl.mem set_index (set_key (Elem.Set.add a x)))
      (Elem.Set.elements (Db.domain d))
  in
  let positions =
    Array.to_list set_arr
    |> List.mapi (fun si x ->
           List.map (fun asg -> (si, asg)) (positions_of_set ~d ~d' x))
    |> List.concat |> Array.of_list
  in
  let pos_tbl = Hashtbl.create 1024 in
  Array.iteri
    (fun id (si, asg) -> Hashtbl.replace pos_tbl (si, Elem.Map.bindings asg) id)
    positions;
  let n = Array.length positions in
  let parents = Array.make n [] in
  Array.iteri
    (fun id (si, asg) ->
      Elem.Set.iter
        (fun c ->
          let px = Elem.Set.remove c set_arr.(si) in
          let psi = Hashtbl.find set_index (set_key px) in
          let pid =
            Hashtbl.find pos_tbl
              (psi, Elem.Map.bindings (Elem.Map.remove c asg))
          in
          let rec index_of i = function
            | [] -> invalid_arg "Cover_game_ref: not a legal addition"
            | a :: rest -> if Elem.equal a c then i else index_of (i + 1) rest
          in
          parents.(id) <- (pid, index_of 0 (additions px)) :: parents.(id))
        set_arr.(si))
    positions;
  {
    d;
    d';
    set_arr;
    pos_set = Array.map fst positions;
    pos_asg = Array.map snd positions;
    slots =
      Array.map (fun (si, _) -> List.length (additions set_arr.(si))) positions;
    parents;
    empty_pos = Hashtbl.find_opt pos_tbl (Hashtbl.find set_index [], []);
  }

let holds_ctx ctx ~pin:pin_list =
  let consistent =
    List.for_all
      (fun (a, b) ->
        List.for_all
          (fun (a', b') -> (not (Elem.equal a a')) || Elem.equal b b')
          pin_list)
      pin_list
  in
  let pin =
    List.fold_left
      (fun acc (a, b) ->
        if Elem.Set.mem a (Db.domain ctx.d) then Elem.Map.add a b acc else acc)
      Elem.Map.empty pin_list
  in
  let pin_dom =
    Elem.Map.fold (fun a _ s -> Elem.Set.add a s) pin Elem.Set.empty
  in
  let pin_facts =
    List.concat_map
      (fun a -> Db.facts_with_elem a ctx.d)
      (Elem.Set.elements pin_dom)
  in
  (* pebbled pinned elements carry their pinned values, and every fact
     touching the pin inside (set ∪ pinned elements) maps *)
  let compatible id =
    let asg = ctx.pos_asg.(id) in
    let scope = Elem.Set.union ctx.set_arr.(ctx.pos_set.(id)) pin_dom in
    let both = Elem.Map.union (fun _ v _ -> Some v) asg pin in
    Elem.Map.for_all
      (fun a b ->
        match Elem.Map.find_opt a asg with
        | Some v -> Elem.equal v b
        | None -> true)
      pin
    && List.for_all
         (fun f ->
           (not (Elem.Set.subset (Fact.elems f) scope))
           || Db.mem (image both f) ctx.d')
         pin_facts
  in
  consistent
  &&
  let n = Array.length ctx.pos_set in
  let alive = Array.init n compatible in
  let count = Array.map (fun k -> Array.make k 0) ctx.slots in
  let fill id delta =
    List.iter
      (fun (p, s) -> count.(p).(s) <- count.(p).(s) + delta)
      ctx.parents.(id)
  in
  Array.iteri (fun id a -> if a then fill id 1) alive;
  (* kill until stable: forth failures and lost restrictions *)
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to n - 1 do
      if
        alive.(id)
        && (Array.exists (fun c -> c = 0) count.(id)
           || List.exists (fun (p, _) -> not alive.(p)) ctx.parents.(id))
      then begin
        alive.(id) <- false;
        changed := true;
        fill id (-1)
      end
    done
  done;
  match ctx.empty_pos with Some id -> alive.(id) | None -> false
