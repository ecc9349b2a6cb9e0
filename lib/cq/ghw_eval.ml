(* Width-k evaluation, compiled once per decomposition.

   Each decomposition node becomes a join over its cover and assigned
   atoms. A node also carries a column for the free variable x, through
   the entity atom eta(x), when some atom of its subtree mentions x.
   Those nodes form a subtree around the root, so adding x to their
   bags keeps the running-intersection property, and the per-entity
   answer drops out of the root. A subtree that never mentions x gets
   no x column: an x-free tree is a non-emptiness test, never a
   product with the entity list.

   [compile] fixes everything that does not depend on the database: the
   atom each node joins, in a connected order, and for each join the
   slots (one per variable of the node) it keys on and binds. A node's
   output is the projection of its joined rows onto the slots it shares
   with its parent (x at a root); the parent keeps a row only when each
   child's output holds its key — the bottom-up semijoin pass.

   [run] works on the element ids of the pass ({!Atom_rels.id_rows}).
   Only the elements of the rows it reads get ids, so what it indexes
   by id is sized by those rows, not by the database's domain.
   A node's join is a depth-first nested loop over indexed atom rows
   into one slot array, so no intermediate row is built; a branch stops
   as soon as its output key is already known. *)

type step = {
  atom : Fact.t;
  key_cols : int array;  (* atom columns already bound ... *)
  key_slots : int array;  (* ... and the slots holding their values *)
  bind_cols : int array;  (* atom columns this step binds ... *)
  bind_slots : int array;  (* ... into these slots *)
  checks : (int * int array) list;
      (* children whose key slots are all bound after this step *)
}

type node = {
  width : int;  (* slots *)
  steps : step array;
  ready : int;  (* steps after which every output slot is bound *)
  out : int array;  (* output slots *)
  children : node array;
}

type program = {
  trees : node list;
  entity : Fact.t;
  x_only : Fact.t list;
  atoms : Fact.t list;  (* every atom the program reads *)
}

(* --- compilation ------------------------------------------------------ *)

(* [pick score atoms] is the atom of highest score, the earliest on
   ties, and the others in order. *)
let pick score = function
  | [] -> invalid_arg "Ghw_eval.pick: no atom left"
  | first :: rest as atoms ->
      let best, _ =
        List.fold_left
          (fun (b, bs) a ->
            let s = score a in
            if compare s bs > 0 then (a, s) else (b, bs))
          (first, score first) rest
      in
      (best, List.filter (fun a -> a != best) atoms)

(* A node's atoms, each with its distinct variables, in a connected
   join order, and the slot of each variable. A node carrying x starts
   at eta(x), so each entity looks for one witness and stops; any other
   node starts at the atom binding most output variables. Each next
   atom is one whose variables are all bound (a filter), else the one
   sharing most variables with the bound ones and adding the fewest,
   else — nothing connects — the first left. Returns, per step, the
   atom with its (column, slot) pairs already bound and newly bound,
   and the slots as (variable, slot, binding step), latest first. *)
let join_order ~entity out_vars atoms =
  let slots = ref [] in
  let slot v = List.find_map (fun (w, s, _) -> if Elem.equal w v then Some s else None) !slots in
  let count p vars = Array.fold_left (fun n v -> if p v then n + 1 else n) 0 vars in
  let start (a, vars) =
    if Fact.equal a entity then (1, 0, 0)
    else (0, count (fun v -> List.exists (Elem.equal v) out_vars) vars, 0)
  in
  let next (_, vars) =
    let shared = count (fun v -> slot v <> None) vars in
    let fresh = Array.length vars - shared in
    if fresh = 0 then (2, 0, 0) else if shared > 0 then (1, shared, -fresh) else (0, 0, 0)
  in
  (* cqlint: allow R1 — recursion bounded by the atom count of one node *)
  let rec go i left acc =
    match left with
    | [] -> List.rev acc
    | _ :: _ ->
      let (a, vars), left = pick (if i = 0 then start else next) left in
      let cols =
        Array.to_list
          (Array.mapi
             (fun c v ->
               match slot v with
               | Some s -> (true, (c, s))
               | None ->
                   let s = List.length !slots in
                   slots := (v, s, i) :: !slots;
                   (false, (c, s)))
             vars)
      in
      let key, bind = List.partition fst cols in
      go (i + 1) left ((a, List.map snd key, List.map snd bind) :: acc)
  in
  let steps = go 0 atoms [] in
  (steps, !slots)

let compile q forest =
  let free = Cq.free q in
  let ex = Cq.existential_vars q in
  let entity = Fact.make Db.entity_rel [| free |] in
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec nodes d = d :: List.concat_map nodes d.Cq_decomp.children in
  let preorder = Array.of_list (List.concat_map nodes forest) in
  (* Atoms whose existential variables are nonempty get assigned to the
     first node, in preorder, whose bag contains them; the rest
     constrain x alone. *)
  let assigned = Array.make (Array.length preorder) [] in
  let x_only =
    List.filter
      (fun atom ->
        let evars = Elem.Set.inter (Fact.elems atom) ex in
        if Elem.Set.is_empty evars then true
        else begin
          (* cqlint: allow R1 — scan bounded by the node count *)
          let rec find i =
            if i = Array.length preorder then
              invalid_arg "Ghw_eval: decomposition does not cover all atoms"
            else if Elem.Set.subset evars preorder.(i).Cq_decomp.bag then i
            else find (i + 1)
          in
          let i = find 0 in
          assigned.(i) <- atom :: assigned.(i);
          false
        end)
      (Cq.atoms q)
  in
  let counter = ref (-1) in
  (* Returns the node and the variables of its output, in key order. *)
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec compile_node ~parent_bag (d : Cq_decomp.decomp) =
    incr counter;
    (* The cover, then the assigned atoms, without repeats: latest first. *)
    let local =
      List.fold_left
        (fun acc a -> if List.exists (Fact.equal a) acc then acc else a :: acc)
        [] (d.cover @ List.rev assigned.(!counter))
    in
    let children = List.map (compile_node ~parent_bag:d.bag) d.children in
    let needs_x =
      List.exists (fun atom -> Array.exists (Elem.equal free) (Fact.args atom)) local
      || List.exists (fun (_, vars) -> List.exists (Elem.equal free) vars) children
    in
    let out_vars =
      Elem.Set.elements (Elem.Set.inter d.bag parent_bag)
      @ if needs_x then [ free ] else []
    in
    let atoms = List.rev (if needs_x then entity :: local else local) in
    let order, slots =
      join_order ~entity out_vars
        (List.map (fun a -> (a, Array.of_list (Atom_rels.distinct_vars a))) atoms)
    in
    let slot v = List.find_map (fun (w, s, _) -> if Elem.equal w v then Some s else None) slots in
    let slots_of vs = Array.of_list (List.map (fun v -> Option.get (slot v)) vs) in
    let bound_at = Array.make (List.length slots) 0 in
    List.iter (fun (_, s, i) -> bound_at.(s) <- i) slots;
    (* A child sharing no slot is a non-emptiness test, done before the
       join; the others are checked at the first step binding all of
       their key. *)
    let checks =
      List.concat
        (List.mapi
           (fun c (_, cvars) ->
             if cvars = [] then []
             else
               let ks = slots_of cvars in
               [ (Array.fold_left (fun m s -> max m bound_at.(s)) 0 ks, (c, ks)) ])
           children)
    in
    let steps =
      List.mapi
        (fun i (atom, key, bind) ->
          {
            atom;
            key_cols = Array.of_list (List.map fst key);
            key_slots = Array.of_list (List.map snd key);
            bind_cols = Array.of_list (List.map fst bind);
            bind_slots = Array.of_list (List.map snd bind);
            checks = List.filter_map (fun (at, ck) -> if at = i then Some ck else None) checks;
          })
        order
    in
    let out = slots_of out_vars in
    ( {
        width = Array.length bound_at;
        steps = Array.of_list steps;
        ready = Array.fold_left (fun m s -> max m (bound_at.(s) + 1)) 0 out;
        out;
        children = Array.of_list (List.map fst children);
      },
      out_vars )
  in
  let trees = List.map (fun d -> fst (compile_node ~parent_bag:Elem.Set.empty d)) forest in
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec node_atoms n =
    Array.to_list (Array.map (fun s -> s.atom) n.steps)
    @ List.concat_map node_atoms (Array.to_list n.children)
  in
  { trees; entity; x_only; atoms = (entity :: x_only) @ List.concat_map node_atoms trees }

(* --- keys over ids ---------------------------------------------------- *)

(* A key of one column is the id itself; a wider key is the id row,
   hashed and compared column by column, so two keys are equal only
   when their ids are. *)
module Row_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    (* cqlint: allow R1 — recursion bounded by the key width *)
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  let hash (a : int array) =
    let h = ref 17 in
    (* cqlint: allow R1 — loop bounded by the key width *)
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(i)
    done;
    (!h lxor (!h lsr 29)) land max_int
end)

(* [probe buf slots pos] fills [buf] with the slot values at [pos]: a
   lookup key that the table does not keep. *)
let probe buf slots pos =
  (* cqlint: allow R1 — loop bounded by the key width *)
  for j = 0 to Array.length pos - 1 do
    buf.(j) <- slots.(pos.(j))
  done;
  buf

(* Atom rows indexed by the values at some of their columns. *)
type index =
  | Scan of int array list  (* no key column *)
  | By_id of int array list array
  | By_row of int array * int array list Row_tbl.t  (* probe buffer, table *)

let index n rows cols =
  let group add = List.iter (fun row -> Budget.tick ~what:"decomposed join" (); add row) rows in
  match Array.length cols with
  | 0 -> Scan rows
  | 1 ->
      let a = Array.make n [] in
      let c = cols.(0) in
      group (fun row -> a.(row.(c)) <- row :: a.(row.(c)));
      By_id a
  | w ->
      let t = Row_tbl.create 64 in
      group (fun row ->
          let k = Array.map (fun c -> row.(c)) cols in
          Row_tbl.replace t k (row :: Option.value ~default:[] (Row_tbl.find_opt t k)));
      By_row (Array.make w 0, t)

let lookup ix slots pos =
  match ix with
  | Scan rows -> rows
  | By_id a -> a.(slots.(pos.(0)))
  | By_row (buf, t) -> Option.value ~default:[] (Row_tbl.find_opt t (probe buf slots pos))

(* Sets of keys: a node's output. *)
type keyset =
  | Flag of bool ref  (* no key column: non-empty or not *)
  | Bits of Bytes.t
  | Rows of int array * unit Row_tbl.t  (* probe buffer, table *)

let keyset n w =
  if w = 0 then Flag (ref false)
  else if w = 1 then Bits (Bytes.make n '\000')
  else Rows (Array.make w 0, Row_tbl.create 16)

let mem ks slots pos =
  match ks with
  | Flag r -> !r
  | Bits b -> Bytes.get b slots.(pos.(0)) <> '\000'
  | Rows (buf, t) -> Row_tbl.mem t (probe buf slots pos)

let add ks slots pos =
  match ks with
  | Flag r -> r := true
  | Bits b -> Bytes.set b slots.(pos.(0)) '\001'
  | Rows (_, t) -> Row_tbl.replace t (Array.map (fun p -> slots.(p)) pos) ()

let is_empty = function
  | Flag r -> not !r
  | Bits b -> not (Bytes.exists (fun c -> c <> '\000') b)
  | Rows (_, t) -> Row_tbl.length t = 0

(* --- evaluation ------------------------------------------------------- *)

let run_node rels n =
  (* cqlint: allow R1 — structural recursion over a finite decomposition tree *)
  let rec eval node =
    let kids = Array.map eval node.children in
    let out = keyset n (Array.length node.out) in
    if not (Array.exists is_empty kids) then begin
      let ixs = Array.map (fun s -> index n (Atom_rels.id_rows rels s.atom) s.key_cols) node.steps in
      let slots = Array.make node.width 0 in
      let last = Array.length node.steps in
      let rec go i =
        if i >= node.ready && mem out slots node.out then ()
        else if i = last then add out slots node.out
        else begin
          let s = node.steps.(i) in
          List.iter
            (fun row ->
              Budget.tick ~what:"decomposed join" ();
              (* cqlint: allow R1 — loop bounded by the arity of one atom *)
              for j = 0 to Array.length s.bind_cols - 1 do
                slots.(s.bind_slots.(j)) <- row.(s.bind_cols.(j))
              done;
              if
                List.for_all
                  (fun (c, ks) ->
                    Budget.tick ~what:"decomposed semijoin" ();
                    mem kids.(c) slots ks)
                  s.checks
              then go (i + 1))
            (lookup ixs.(i) slots s.key_slots)
        end
      in
      go 0
    end;
    out
  in
  eval

let run rels p =
  (* Number the elements of every row the program reads before sizing
     anything by the id count. *)
  List.iter (fun atom -> ignore (Atom_rels.id_rows rels atom)) p.atoms;
  let n = Atom_rels.id_count rels in
  (* The entities not yet ruled out, and how many. *)
  let selected = Bytes.make n '\000' in
  let entities = Atom_rels.id_rows rels p.entity in
  List.iter (fun row -> Bytes.set selected row.(0) '\001') entities;
  let live = ref (List.length entities) in
  let restrict = function
    | Flag r -> if not !r then live := 0
    | Bits b ->
        Bytes.iteri
          (fun i c ->
            if c = '\000' && Bytes.get selected i <> '\000' then begin
              Bytes.set selected i '\000';
              decr live
            end)
          b
    | Rows _ -> invalid_arg "Ghw_eval.run: output wider than x"
  in
  (* An x-only atom has the single column x, or none when nullary. *)
  List.iter
    (fun atom ->
      if !live > 0 then begin
        let ks = keyset n (List.length (Atom_rels.distinct_vars atom)) in
        List.iter (fun row -> add ks row [| 0 |]) (Atom_rels.id_rows rels atom);
        restrict ks
      end)
    p.x_only;
  let eval = run_node rels n in
  List.iter (fun tree -> if !live > 0 then restrict (eval tree)) p.trees;
  if !live = 0 then []
  else
    List.sort Elem.compare
      (List.filter_map
         (fun row ->
           if Bytes.get selected row.(0) = '\000' then None
           else Some (Atom_rels.elem_of_id rels row.(0)))
         entities)

let eval ~k q db =
  match Cq_decomp.decomposition q ~k with
  | None -> None
  | Some forest -> Some (run (Atom_rels.create db) (compile q forest))
