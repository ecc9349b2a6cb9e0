(* Backtracking homomorphism search with join-based candidate
   generation: the candidates for the next source element are read off a
   destination relation scan filtered by the already-assigned positions
   of the most-informative source fact containing it. *)

type mapping = Elem.t Elem.Map.t

(* Check every fact of [src] containing [x] whose arguments are all
   assigned under [asg]. *)
let facts_ok src dst asg x =
  List.for_all
    (fun f ->
      let args = Fact.args f in
      let all_assigned =
        Array.for_all (fun a -> Elem.Map.mem a asg) args
      in
      (not all_assigned)
      || Db.mem (Fact.make (Fact.rel f) (Array.map (fun a -> Elem.Map.find a asg) args)) dst)
    (Db.facts_with_elem x src)

(* Candidate targets for source element [x] under partial assignment
   [asg]: pick the fact containing [x] with the most assigned arguments
   and scan the matching destination facts; fall back to the whole
   destination domain when [x] has no constraining fact. *)
let candidates src dst asg x =
  let facts = Db.facts_with_elem x src in
  let score f =
    Array.fold_left
      (fun acc a -> if Elem.Map.mem a asg then acc + 1 else acc)
      0 (Fact.args f)
  in
  let best =
    List.fold_left
      (fun acc f ->
        match acc with
        | Some (s, _) when s >= score f -> acc
        | _ -> Some (score f, f))
      None facts
  in
  match best with
  | None -> Elem.Set.elements (Db.domain dst)
  | Some (_, f) ->
      let args = Fact.args f in
      let n = Array.length args in
      let matches t =
        let targs = Fact.args t in
        let ok = ref (Array.length targs = n) in
        (* cqlint: allow R1 — loop bounded by the arity of one fact *)
        for i = 0 to n - 1 do
          if !ok then begin
            match Elem.Map.find_opt args.(i) asg with
            | Some v -> if not (Elem.equal targs.(i) v) then ok := false
            | None -> ()
          end
        done;
        !ok
      in
      let collect acc t =
        if matches t then begin
          let targs = Fact.args t in
          (* x may occur in several positions of f; all of them must
             agree on the candidate value. *)
          let value = ref None in
          let consistent = ref true in
          (* cqlint: allow R1 — loop bounded by the arity of one fact *)
          for i = 0 to n - 1 do
            if Elem.equal args.(i) x then begin
              match !value with
              | None -> value := Some targs.(i)
              | Some v ->
                  if not (Elem.equal v targs.(i)) then consistent := false
            end
          done;
          match (!consistent, !value) with
          | true, Some v ->
              if List.exists (Elem.equal v) acc then acc else v :: acc
          | _ -> acc
        end
        else acc
      in
      List.fold_left collect [] (Db.facts_of_rel (Fact.rel f) dst)

(* Order the unassigned elements: breadth-first through shared facts
   starting from the assigned ones, so the search stays connected and
   candidate generation has constraints to work with. *)
let search_order src fixed =
  let dom = Db.domain src in
  let visited = ref Elem.Set.empty in
  let order = ref [] in
  let queue = Queue.create () in
  let push e =
    if Elem.Set.mem e dom && not (Elem.Set.mem e !visited) then begin
      visited := Elem.Set.add e !visited;
      Queue.add e queue
    end
  in
  List.iter push fixed;
  let drain () =
    while not (Queue.is_empty queue) do
      Budget.tick ~what:"hom: BFS search order" ();
      let e = Queue.pop queue in
      order := e :: !order;
      List.iter
        (fun f -> Array.iter push (Fact.args f))
        (Db.facts_with_elem e src)
    done
  in
  drain ();
  (* Pick up disconnected components. *)
  Elem.Set.iter
    (fun e ->
      if not (Elem.Set.mem e !visited) then begin
        push e;
        drain ()
      end)
    dom;
  List.filter
    (fun e -> not (List.exists (Elem.equal e) fixed))
    (List.rev !order)

let solve ?(fix = []) ?(naive = false) ~src ~dst ~on_solution () =
  let dom = Db.domain src in
  let fix = List.filter (fun (a, _) -> Elem.Set.mem a dom) fix in
  (* Conflicting fixes (same source, different targets) mean no hom. *)
  let init =
    List.fold_left
      (fun acc (a, b) ->
        match acc with
        | None -> None
        | Some m -> begin
            match Elem.Map.find_opt a m with
            | Some b' when not (Elem.equal b b') -> None
            | _ -> Some (Elem.Map.add a b m)
          end)
      (Some Elem.Map.empty) fix
  in
  match init with
  | None -> ()
  | Some init ->
      let fixed_elems = List.map fst fix in
      let seed_ok =
        List.for_all (fun x -> facts_ok src dst init x) fixed_elems
      in
      if seed_ok then begin
        let order = Array.of_list (search_order src fixed_elems) in
        let n = Array.length order in
        let rec go i asg =
          if i >= n then on_solution asg
          else begin
            let x = order.(i) in
            let try_candidate v =
              Budget.tick ~what:"hom search" ();
              let asg' = Elem.Map.add x v asg in
              if facts_ok src dst asg' x then go (i + 1) asg'
            in
            let cands =
              if naive then Elem.Set.elements (Db.domain dst)
              else candidates src dst asg x
            in
            List.iter try_candidate cands
          end
        in
        go 0 init
      end

exception Found of mapping

let find ?fix ?naive ~src ~dst () =
  match
    solve ?fix ?naive ~src ~dst ~on_solution:(fun m -> raise (Found m)) ()
  with
  | () -> None
  | exception Found m -> Some m

let exists ?fix ?naive ~src ~dst () = find ?fix ?naive ~src ~dst () <> None

let pointed src sa dst db =
  if List.length sa <> List.length db then
    invalid_arg "Hom.pointed: tuples of different lengths";
  exists ~fix:(List.combine sa db) ~src ~dst ()

let equiv_pointed d e d' e' =
  pointed d [ e ] d' [ e' ] && pointed d' [ e' ] d [ e ]

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

let count ?fix ~src ~dst () =
  let n = ref 0 in
  solve ?fix ~src ~dst ~on_solution:(fun _ -> incr n) ();
  !n

(* ---- arc-consistent search over one pair of databases ---------------- *)

(* Source elements are variables and destination elements values, both
   numbered; every source fact is a constraint whose allowed tuples are
   the destination facts of its relation and arity. A domain store
   keeps one byte per (variable, value), [x * nvals + v]. Domains are
   kept generalized arc consistent: a value stays in a variable's
   domain only while every constraint on the variable has an allowed
   tuple through it inside the other domains. A homomorphism maps each
   variable into its consistent domain, so a query may start from the
   unpinned consistent domains, computed once per context. *)
type context = {
  vars : Elem.t array;  (* dom src *)
  var_ix : int Elem.Map.t;
  vals : Elem.t array;  (* dom dst *)
  val_ix : int Elem.Map.t;
  nvals : int;
  cargs : int array array;  (* per source fact: its variables *)
  crepeats : bool array;  (* per source fact: some variable occurs twice *)
  ctuples : int array array array;  (* per source fact: allowed tuples *)
  var_cons : int array array;  (* per variable: the constraints on it *)
  max_arity : int;
  base : Bytes.t option;  (* unpinned consistent domains; None: no hom *)
}

let present = '\001'
let absent = '\000'

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
let revise ctx dom mark c shrunk =
  let xs = ctx.cargs.(c) in
  let r = Array.length xs in
  let nv = ctx.nvals in
  Bytes.fill mark 0 (r * nv) absent;
  let supported = ref false in
  Array.iter
    (fun t ->
      if tuple_fits ctx dom c t then begin
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
      if Bytes.get dom ((x * nv) + v) = present then
        if Bytes.get mark ((p * nv) + v) = present then incr left
        else begin
          Bytes.set dom ((x * nv) + v) absent;
          lost := true
        end
    done;
    if !left = 0 then alive := false;
    if !lost then shrunk x
  done;
  !alive

(* Restores arc consistency after the domains of the constraints in
   [start] changed. False when some domain became empty. *)
let propagate ctx dom start =
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
      revise ctx dom mark c (fun x ->
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
  let ctuples =
    Array.map
      (fun f ->
        let r = Array.length (Fact.args f) in
        Db.facts_of_rel (Fact.rel f) dst
        |> List.filter (fun t -> Array.length (Fact.args t) = r)
        |> List.map (fun t ->
               Array.map (fun b -> Elem.Map.find b val_ix) (Fact.args t))
        |> Array.of_list)
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
  let dom = Bytes.make (nvars * nvals) present in
  let all = List.init (Array.length cargs) Fun.id in
  { ctx with base = (if propagate ctx dom all then Some dom else None) }

exception Solved of Bytes.t

(* Search with propagation after every assignment, branching on a
   variable with the fewest values left; raises [Solved] at the first
   store where every domain is a single value. *)
let rec descend ctx dom =
  let nv = ctx.nvals in
  let best = ref (-1) and best_size = ref max_int in
  (* cqlint: allow R1 — one scan of the store, bounded by its size *)
  for x = 0 to Array.length ctx.vars - 1 do
    let size = ref 0 in
    (* cqlint: allow R1 — one scan of a domain, bounded by dom dst *)
    for v = 0 to nv - 1 do
      if Bytes.get dom ((x * nv) + v) = present then incr size
    done;
    if !size > 1 && !size < !best_size then begin
      best := x;
      best_size := !size
    end
  done;
  if !best < 0 then raise (Solved dom);
  let x = !best in
  for v = 0 to nv - 1 do
    if Bytes.get dom ((x * nv) + v) = present then begin
      Budget.tick ~what:"hom: consistent search" ();
      let d = Bytes.copy dom in
      Bytes.fill d (x * nv) nv absent;
      Bytes.set d ((x * nv) + v) present;
      if propagate ctx d (Array.to_list ctx.var_cons.(x)) then descend ctx d
    end
  done

let find_ctx ctx ~fix =
  match ctx.base with
  | None -> None
  | Some base -> (
      let nv = ctx.nvals in
      let dom = Bytes.copy base in
      let pin (a, b) =
        match Elem.Map.find_opt a ctx.var_ix with
        | None -> Some None (* outside dom src: ignored, as in [find] *)
        | Some x -> (
            match Elem.Map.find_opt b ctx.val_ix with
            | Some v when Bytes.get dom ((x * nv) + v) = present ->
                Bytes.fill dom (x * nv) nv absent;
                Bytes.set dom ((x * nv) + v) present;
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
      | None -> None
      | Some start -> (
          if not (propagate ctx dom start) then None
          else
            match descend ctx dom with
            | () -> None
            | exception Solved d ->
                let image x =
                  let v = ref 0 in
                  (* cqlint: allow R1 — finds the one value left, bounded by dom dst *)
                  while Bytes.get d ((x * nv) + !v) <> present do
                    incr v
                  done;
                  ctx.vals.(!v)
                in
                let m = ref Elem.Map.empty in
                Array.iteri (fun x a -> m := Elem.Map.add a (image x) !m) ctx.vars;
                Some !m))
