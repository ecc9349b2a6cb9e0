(* Homomorphism search as a constraint problem kept generalized arc
   consistent. Source elements are variables and destination elements
   values, both numbered; every source fact is a constraint whose
   allowed tuples are the destination facts of its relation and arity.
   A domain store keeps one byte per (variable, value),
   [x * nvals + v]. A value stays in a variable's domain only while
   every constraint on the variable has an allowed tuple through it
   inside the other domains. A homomorphism maps each variable into its
   consistent domain, so a query starts from the unpinned consistent
   domains, computed once per context. *)

type mapping = Elem.t Elem.Map.t

let is_hom mapping ~src ~dst =
  List.for_all
    (fun f ->
      let image a =
        match Elem.Map.find_opt a mapping with
        | Some v -> v
        | None -> raise Exit
      in
      match Fact.map_elems image f with
      | f' -> Db.mem f' dst
      | exception Exit -> false)
    (Db.facts src)

type context = {
  vars : Elem.t array;  (* dom src *)
  var_ix : int Elem.Map.t;
  vals : Elem.t array;  (* dom dst *)
  val_ix : int Elem.Map.t;
  nvals : int;
  cargs : int array array;  (* per source fact: its variables *)
  crepeats : bool array;  (* per source fact: some variable occurs twice *)
  ctuples : int array array array;
      (* per source fact: allowed tuples, one array shared by the facts
         of a (relation, arity) *)
  var_cons : int array array;  (* per variable: the constraints on it *)
  max_arity : int;
  base : Bytes.t option;  (* unpinned consistent domains; None: no hom *)
}

let present = '\001'
let absent = '\000'

(* One query's domains. Every removal is pushed on [trail], the first
   [top] entries, so a branch of the search can put back what it took. *)
type store = { dom : Bytes.t; mutable trail : int array; mutable top : int }

let store dom = { dom; trail = [||]; top = 0 }

let remove st i =
  Bytes.set st.dom i absent;
  if st.top = Array.length st.trail then begin
    let grown = Array.make (max 64 (2 * st.top)) 0 in
    Array.blit st.trail 0 grown 0 st.top;
    st.trail <- grown
  end;
  st.trail.(st.top) <- i;
  st.top <- st.top + 1

(* Puts back every removal recorded after trail position [mark]. *)
let undo st mark =
  (* cqlint: allow R1 — pops the removals recorded since [mark], each made by a ticking loop *)
  while st.top > mark do
    st.top <- st.top - 1;
    Bytes.set st.dom st.trail.(st.top) present
  done

(* [t] is allowed by constraint [c] inside the domains [dom]. *)
let tuple_fits ctx dom c t =
  let xs = ctx.cargs.(c) in
  let r = Array.length xs in
  let ok = ref true in
  (* cqlint: allow R1 — loop bounded by the arity of one fact *)
  for p = 0 to r - 1 do
    if !ok && Bytes.get dom ((xs.(p) * ctx.nvals) + t.(p)) <> present then
      ok := false
  done;
  if !ok && ctx.crepeats.(c) then
    (* cqlint: allow R1 — loop bounded by the arity of one fact *)
    for p = 0 to r - 1 do
      (* cqlint: allow R1 — loop bounded by the arity of one fact *)
      for q = p + 1 to r - 1 do
        if xs.(p) = xs.(q) && t.(p) <> t.(q) then ok := false
      done
    done;
  !ok

(* Removes from the domains of [c]'s variables the values no allowed
   tuple supports, calling [shrunk x] for each variable that lost one.
   False when a domain became empty. [mark] is scratch of at least
   [max_arity * nvals] bytes. *)
let revise ctx st mark c shrunk =
  let xs = ctx.cargs.(c) in
  let r = Array.length xs in
  let nv = ctx.nvals in
  Bytes.fill mark 0 (r * nv) absent;
  let supported = ref false in
  Array.iter
    (fun t ->
      if tuple_fits ctx st.dom c t then begin
        supported := true;
        (* cqlint: allow R1 — loop bounded by the arity of one fact *)
        for p = 0 to r - 1 do
          Bytes.set mark ((p * nv) + t.(p)) present
        done
      end)
    ctx.ctuples.(c);
  (* a nullary fact has no domain to empty *)
  let alive = ref !supported in
  (* cqlint: allow R1 — loop bounded by the arity of one fact *)
  for p = 0 to r - 1 do
    let x = xs.(p) in
    let lost = ref false and left = ref 0 in
    (* cqlint: allow R1 — one scan of a domain, bounded by dom dst *)
    for v = 0 to nv - 1 do
      if Bytes.get st.dom ((x * nv) + v) = present then
        if Bytes.get mark ((p * nv) + v) = present then incr left
        else begin
          remove st ((x * nv) + v);
          lost := true
        end
    done;
    if !left = 0 then alive := false;
    if !lost then shrunk x
  done;
  !alive

(* Restores arc consistency after the domains of the constraints in
   [start] changed. False when some domain became empty. *)
let propagate ctx st start =
  let queued = Bytes.make (Array.length ctx.cargs) absent in
  let queue = Queue.create () in
  let push c =
    if Bytes.get queued c = absent then begin
      Bytes.set queued c present;
      Queue.add c queue
    end
  in
  List.iter push start;
  let mark = Bytes.create (ctx.max_arity * ctx.nvals) in
  let alive = ref true in
  while !alive && not (Queue.is_empty queue) do
    Budget.tick ~what:"hom: arc consistency" ();
    let c = Queue.pop queue in
    Bytes.set queued c absent;
    alive :=
      revise ctx st mark c (fun x ->
          Array.iter (fun c' -> if c' <> c then push c') ctx.var_cons.(x))
  done;
  !alive

let context ~src ~dst =
  let number set =
    let arr = Array.of_list (Elem.Set.elements set) in
    let ix = ref Elem.Map.empty in
    Array.iteri (fun i e -> ix := Elem.Map.add e i !ix) arr;
    (arr, !ix)
  in
  let vars, var_ix = number (Db.domain src) in
  let vals, val_ix = number (Db.domain dst) in
  let nvars = Array.length vars and nvals = Array.length vals in
  let facts = Array.of_list (Db.facts src) in
  let cargs =
    Array.map
      (fun f -> Array.map (fun a -> Elem.Map.find a var_ix) (Fact.args f))
      facts
  in
  let crepeats =
    Array.map
      (fun xs ->
        let r = Array.length xs in
        let rep = ref false in
        (* cqlint: allow R1 — loop bounded by the arity of one fact *)
        for p = 0 to r - 1 do
          (* cqlint: allow R1 — loop bounded by the arity of one fact *)
          for q = p + 1 to r - 1 do
            if xs.(p) = xs.(q) then rep := true
          done
        done;
        !rep)
      cargs
  in
  let shared = Hashtbl.create 16 in
  let ctuples =
    Array.map
      (fun f ->
        let key = (Fact.rel f, Fact.arity f) in
        match Hashtbl.find_opt shared key with
        | Some ts -> ts
        | None ->
            let ts =
              Db.facts_of_rel (Fact.rel f) dst
              |> List.filter (fun t -> Fact.arity t = Fact.arity f)
              |> List.map (fun t ->
                     Array.map (fun b -> Elem.Map.find b val_ix) (Fact.args t))
              |> Array.of_list
            in
            Hashtbl.add shared key ts;
            ts)
      facts
  in
  let var_cons =
    let acc = Array.make nvars [] in
    Array.iteri
      (fun c xs ->
        Array.iter
          (fun x ->
            match acc.(x) with
            | c' :: _ when c' = c -> ()
            | l -> acc.(x) <- c :: l)
          xs)
      cargs;
    Array.map (fun l -> Array.of_list (List.rev l)) acc
  in
  let max_arity = Array.fold_left (fun m xs -> max m (Array.length xs)) 0 cargs in
  let ctx =
    { vars; var_ix; vals; val_ix; nvals; cargs; crepeats; ctuples; var_cons;
      max_arity; base = None }
  in
  let st = store (Bytes.make (nvars * nvals) present) in
  let all = List.init (Array.length cargs) Fun.id in
  { ctx with base = (if propagate ctx st all then Some st.dom else None) }

exception Solved

(* Search with propagation after every assignment, branching on a
   variable with the fewest values left; raises [Solved], leaving the
   store at the first state where every domain is a single value. A
   branch undoes its own removals, so a return leaves the store as the
   call found it. *)
let rec descend ctx st =
  let nv = ctx.nvals in
  let best = ref (-1) and best_size = ref max_int in
  (* cqlint: allow R1 — one scan of the store, bounded by its size *)
  for x = 0 to Array.length ctx.vars - 1 do
    let size = ref 0 in
    (* cqlint: allow R1 — one scan of a domain, bounded by dom dst *)
    for v = 0 to nv - 1 do
      if Bytes.get st.dom ((x * nv) + v) = present then incr size
    done;
    if !size > 1 && !size < !best_size then begin
      best := x;
      best_size := !size
    end
  done;
  if !best < 0 then raise Solved;
  let x = !best in
  for v = 0 to nv - 1 do
    if Bytes.get st.dom ((x * nv) + v) = present then begin
      Budget.tick ~what:"hom: consistent search" ();
      let mark = st.top in
      (* cqlint: allow R1 — clears one domain, bounded by dom dst *)
      for w = 0 to nv - 1 do
        if w <> v && Bytes.get st.dom ((x * nv) + w) = present then
          remove st ((x * nv) + w)
      done;
      if propagate ctx st (Array.to_list ctx.var_cons.(x)) then descend ctx st;
      undo st mark
    end
  done

let find_ctx ctx ~fix =
  match ctx.base with
  | None -> None
  | Some base -> (
      let nv = ctx.nvals in
      let st = store (Bytes.copy base) in
      let pin (a, b) =
        match Elem.Map.find_opt a ctx.var_ix with
        | None -> Some None (* outside dom src: ignored *)
        | Some x -> (
            match Elem.Map.find_opt b ctx.val_ix with
            | Some v when Bytes.get st.dom ((x * nv) + v) = present ->
                Bytes.fill st.dom (x * nv) nv absent;
                Bytes.set st.dom ((x * nv) + v) present;
                Some (Some x)
            | _ -> None)
      in
      (* cqlint: allow R1 — recursion bounded by the length of [fix] *)
      let rec pin_all acc = function
        | [] -> Some acc
        | p :: rest -> (
            match pin p with
            | None -> None
            | Some None -> pin_all acc rest
            | Some (Some x) -> pin_all (Array.to_list ctx.var_cons.(x) @ acc) rest)
      in
      match pin_all [] fix with
      | Some start when propagate ctx st start -> (
          match descend ctx st with
          | () -> None
          | exception Solved ->
              let image x =
                let v = ref 0 in
                (* cqlint: allow R1 — finds the one value left, bounded by dom dst *)
                while Bytes.get st.dom ((x * nv) + !v) <> present do
                  incr v
                done;
                ctx.vals.(!v)
              in
              let m = ref Elem.Map.empty in
              Array.iteri (fun x a -> m := Elem.Map.add a (image x) !m) ctx.vars;
              Some !m)
      | _ -> None)

let find ?(fix = []) ~src ~dst () = find_ctx (context ~src ~dst) ~fix

let exists ?fix ~src ~dst () = find ?fix ~src ~dst () <> None

let pointed src sa dst db =
  if List.length sa <> List.length db then
    invalid_arg "Hom.pointed: tuples of different lengths";
  exists ~fix:(List.combine sa db) ~src ~dst ()

let equiv_pointed d e d' e' =
  pointed d [ e ] d' [ e' ] && pointed d' [ e' ] d [ e ]
