type t = {
  reps : Elem.t array;
  members : Elem.t list array;
  class_below : bool array array;
}

let build ~entities ~matrix =
  let n = Array.length entities in
  (* Group mutually-related entities; class ids in discovery order. *)
  let class_id = Array.make n (-1) in
  let rep_of_class = ref [] in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if class_id.(i) < 0 then begin
      let cid = !m in
      incr m;
      rep_of_class := !rep_of_class @ [ i ];
      for j = i to n - 1 do
        Budget.tick ~what:"chain: class grouping" ();
        if class_id.(j) < 0 && matrix.(i).(j) && matrix.(j).(i) then
          class_id.(j) <- cid
      done
    end
  done;
  let m = !m in
  let rep_idx = Array.of_list !rep_of_class in
  let below0 = Array.make_matrix m m false in
  for a = 0 to m - 1 do
    for b = 0 to m - 1 do
      Budget.tick ~what:"chain: class order" ();
      below0.(a).(b) <- matrix.(rep_idx.(a)).(rep_idx.(b))
    done
  done;
  let members0 = Array.make m [] in
  for j = n - 1 downto 0 do
    Budget.tick ~what:"chain: member collection" ();
    members0.(class_id.(j)) <- entities.(j) :: members0.(class_id.(j))
  done;
  (* Kahn topological sort of the class DAG (strict part of ≼). *)
  let order = ref [] in
  let placed = Array.make m false in
  for _ = 1 to m do
    let pick = ref (-1) in
    for a = m - 1 downto 0 do
      if not placed.(a) then begin
        let ready = ref true in
        for b = 0 to m - 1 do
          Budget.tick ~what:"chain: topological sort" ();
          if (not placed.(b)) && b <> a && below0.(b).(a) then ready := false
        done;
        if !ready then pick := a
      end
    done;
    assert (!pick >= 0);
    placed.(!pick) <- true;
    order := !pick :: !order
  done;
  let order = Array.of_list (List.rev !order) in
  let reps = Array.map (fun a -> entities.(rep_idx.(a))) order in
  let members = Array.map (fun a -> members0.(a)) order in
  let class_below = Array.make_matrix m m false in
  for x = 0 to m - 1 do
    for y = 0 to m - 1 do
      Budget.tick ~what:"chain: class order" ();
      class_below.(x).(y) <- below0.(order.(x)).(order.(y))
    done
  done;
  { reps; members; class_below }

let class_of t e =
  let m = Array.length t.reps in
  (* cqlint: allow R1 — scan bounded by the class count *)
  let rec go i =
    if i >= m then raise Not_found
    else if List.exists (Elem.equal e) t.members.(i) then i
    else go (i + 1)
  in
  go 0

let consistent_labels t labeling =
  let m = Array.length t.reps in
  let labels = Array.make m Labeling.Pos in
  let witness = ref None in
  for i = 0 to m - 1 do
    Budget.tick ~what:"chain: label check" ();
    match t.members.(i) with
    | [] -> assert false
    | first :: rest ->
        let l0 = Labeling.get first labeling in
        labels.(i) <- l0;
        List.iter
          (fun e ->
            if
              !witness = None
              && not (Labeling.label_equal (Labeling.get e labeling) l0)
            then witness := Some (first, e))
          rest
  done;
  match !witness with Some pair -> Error pair | None -> Ok labels

let majority_labels t labeling =
  let m = Array.length t.reps in
  let labels = Array.make m Labeling.Pos in
  let disagreement = ref 0 in
  for i = 0 to m - 1 do
    Budget.tick ~what:"chain: majority labels" ();
    let balance =
      List.fold_left
        (fun acc e -> acc + Labeling.label_sign (Labeling.get e labeling))
        0 t.members.(i)
    in
    let l = if balance >= 0 then Labeling.Pos else Labeling.Neg in
    labels.(i) <- l;
    List.iter
      (fun e ->
        if not (Labeling.label_equal (Labeling.get e labeling) l) then
          incr disagreement)
      t.members.(i)
  done;
  (labels, !disagreement)

let classifier t labels =
  Linsep.chain_classifier ~labels ~below:(fun j i -> t.class_below.(j).(i))

(* [arrow] composes with the class order (see the interface), so a
   false [arrow rep_y x] fixes every class above [y] to false, and a
   true one would fix every class below [y] to true. Classes are asked
   in topological order, so everything below [y] is already answered
   and only the false direction prunes. On 40 planted 12-entity
   GHW(1) instances that skips 35% of the arrows (5568 → 3624), while
   asking in reverse order would skip 6%. *)
let vector_of ~arrow t x =
  let m = Array.length t.reps in
  let v = Array.make m 0 in
  for y = 0 to m - 1 do
    Budget.tick ~what:"chain: algorithm 1 arrows" ();
    if v.(y) = 0 then begin
      v.(y) <- (if arrow t.reps.(y) x then 1 else -1);
      if v.(y) < 0 then
        (* cqlint: allow R1 — fixing pass bounded by the class count *)
        for z = y + 1 to m - 1 do
          if t.class_below.(y).(z) then v.(z) <- -1
        done
    end
  done;
  v

let classify ~arrow t labels xs =
  let classify = Linsep.classify (classifier t labels) in
  List.map (fun x -> (x, classify (vector_of ~arrow t x))) xs

(* Graphviz rendering of the class DAG: nodes are equivalence classes
   (labeled by representative and size), edges the covering relation
   of the strict order. *)
let to_dot ?labels t =
  let m = Array.length t.reps in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph classes {\n  rankdir=BT;\n";
  (* cqlint: allow R1 — rendering pass bounded by the class count *)
  for i = 0 to m - 1 do
    let label_mark =
      match labels with
      | Some ls ->
          if Labeling.label_equal ls.(i) Labeling.Pos then " (+)" else " (-)"
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  c%d [label=\"%s%s x%d%s\"];\n" i
         (Elem.to_string t.reps.(i))
         (if List.length t.members.(i) > 1 then "…" else "")
         (List.length t.members.(i))
         label_mark)
  done;
  (* covering edges: j < i with j ≼ i and no intermediate class *)
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if j <> i && t.class_below.(j).(i) then begin
        let covered = ref false in
        for l = 0 to m - 1 do
          Budget.tick ~what:"chain: dot rendering" ();
          if
            l <> i && l <> j && t.class_below.(j).(l) && t.class_below.(l).(i)
          then covered := true
        done;
        if not !covered then
          Buffer.add_string buf (Printf.sprintf "  c%d -> c%d;\n" j i)
      end
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
