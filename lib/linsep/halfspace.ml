type example = { vec : int array; label : Labeling.label }
type classifier = { weights : Rat.t array; threshold : Rat.t }

(* Staged: the weights and threshold go to integers over their common
   denominator once, so each vector costs Bigint adds and one compare.
   The denominator is positive, so the comparison is unchanged. *)
let classify c =
  let n = Array.length c.weights in
  let nums, _ = Rat.common_denominator (Array.append c.weights [| c.threshold |]) in
  let threshold = nums.(n) in
  fun vec ->
    if Array.length vec <> n then
      invalid_arg "Linsep.classify: dimension mismatch";
    let acc = ref Bigint.zero in
    (* cqlint: allow R1 — dot product bounded by the feature dimension *)
    for i = 0 to n - 1 do
      acc :=
        match vec.(i) with
        | 1 -> Bigint.add !acc nums.(i)
        | -1 -> Bigint.sub !acc nums.(i)
        | b -> Bigint.add !acc (Bigint.mul nums.(i) (Bigint.of_int b))
    done;
    if Bigint.compare !acc threshold >= 0 then Labeling.Pos else Labeling.Neg

let errors c examples =
  let classify = classify c in
  List.fold_left
    (fun acc ex ->
      if Labeling.label_equal (classify ex.vec) ex.label then acc
      else acc + 1)
    0 examples

(* LP encoding over variables (w_1..w_n, w0):
   positive example: Σ w_i b_i - w0 ≥ 0
   negative example: Σ w_i b_i - w0 ≤ -1
   The unit margin on negatives makes the strict inequality of Λ
   expressible; any separating weights can be scaled to satisfy it. *)
let separable examples =
  match examples with
  | [] -> Some { weights = [||]; threshold = Rat.zero }
  | ex0 :: _ ->
      let n = Array.length ex0.vec in
      let nvars = n + 1 in
      let rows =
        List.map
          (fun ex ->
            let coeffs =
              Array.init nvars (fun i ->
                  if i < n then Rat.of_int ex.vec.(i) else Rat.minus_one)
            in
            match ex.label with
            | Labeling.Pos -> { Simplex.coeffs; op = Simplex.Ge; rhs = Rat.zero }
            | Labeling.Neg ->
                { Simplex.coeffs; op = Simplex.Le; rhs = Rat.minus_one })
          examples
      in
      (match Simplex.feasible ~nvars ~rows () with
      | Some x ->
          Some
            {
              weights = Array.sub x 0 n;
              threshold = x.(n);
            }
      | None -> None)

let is_separable examples = separable examples <> None

module Vec_key = struct
  let key vec = Array.to_list vec
end

let group_by_vector examples =
  (* First-seen key order, not Hashtbl.fold order: the groups feed the
     LP builder, so their order must be a function of the input alone. *)
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ex ->
      let key = Vec_key.key ex.vec in
      let pos, neg, vec =
        match Hashtbl.find_opt tbl key with
        | Some t -> t
        | None ->
            order := key :: !order;
            (0, 0, ex.vec)
      in
      let pos, neg =
        match ex.label with
        | Labeling.Pos -> (pos + 1, neg)
        | Labeling.Neg -> (pos, neg + 1)
      in
      Hashtbl.replace tbl key (pos, neg, vec))
    examples;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

let separable_iff_consistent examples =
  List.for_all (fun (pos, neg, _) -> pos = 0 || neg = 0) (group_by_vector examples)

let consistency_lower_bound examples =
  List.fold_left
    (fun acc (pos, neg, _) -> acc + min pos neg)
    0 (group_by_vector examples)

(* --- the explicit chain classifier (Lemma 5.4 / Theorem 5.8) -------- *)

let chain_vector ~below ~m i =
  Array.init m (fun j -> if below j i then 1 else -1)

let chain_classifier ~labels ~below =
  let m = Array.length labels in
  (* The weights depend only on the class labels; [below] is taken to
     validate that the caller's order is topological (below j i ⟹
     j ≤ i), which the geometric weighting relies on. *)
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      Budget.tick ~what:"linsep: chain order validation" ();
      if below j i then
        invalid_arg "Linsep.chain_classifier: order is not topological"
    done
  done;
  let weights =
    Array.init m (fun j ->
        let base = Bigint.pow (Bigint.of_int 3) (j + 1) in
        let signed =
          if Labeling.label_equal labels.(j) Labeling.Pos then base
          else Bigint.neg base
        in
        Rat.of_bigint signed)
  in
  let total = Array.fold_left Rat.add Rat.zero weights in
  { weights; threshold = Rat.neg total }
