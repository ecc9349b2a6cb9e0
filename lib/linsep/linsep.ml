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

(* --- perceptron ----------------------------------------------------- *)

let perceptron ?(max_epochs = 1000) examples =
  match examples with
  | [] -> ({ weights = [||]; threshold = Rat.zero }, true)
  | ex0 :: _ ->
      let n = Array.length ex0.vec in
      (* Integer weights; bias plays the role of -w0. Prediction
         convention matches [classify]: positive iff w·b + bias ≥ 0. *)
      let w = Array.make n 0 in
      let bias = ref 0 in
      let as_classifier () =
        {
          weights = Array.map Rat.of_int w;
          threshold = Rat.of_int (- !bias);
        }
      in
      let predict vec =
        let s = ref !bias in
        (* cqlint: allow R1 — dot product bounded by the feature dimension *)
        for i = 0 to n - 1 do
          s := !s + (w.(i) * vec.(i))
        done;
        if !s >= 0 then Labeling.Pos else Labeling.Neg
      in
      let rec epochs e =
        Budget.tick ~what:"linsep: perceptron epoch" ();
        if e >= max_epochs then (as_classifier (), false)
        else begin
          let mistakes = ref 0 in
          List.iter
            (fun ex ->
              if not (Labeling.label_equal (predict ex.vec) ex.label) then begin
                incr mistakes;
                let dir = Labeling.label_sign ex.label in
                (* cqlint: allow R1 — update bounded by the feature dimension *)
                for i = 0 to n - 1 do
                  w.(i) <- w.(i) + (dir * ex.vec.(i))
                done;
                bias := !bias + dir
              end)
            examples;
          if !mistakes = 0 then (as_classifier (), true) else epochs (e + 1)
        end
      in
      epochs 0

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

(* --- approximate separation ----------------------------------------- *)

(* Iterative deepening on the number of discarded examples, searching
   over vector groups. Discarding from a group means accepting that
   many errors there; within a group only the counts matter, so the
   branching is per group: keep it positive (err += neg), keep it
   negative (err += pos), or — when splitting is pointless — both sides
   get counted anyway. A kept group contributes one representative
   example with the chosen label. *)
let min_errors_exact ?cap examples =
  let cap = match cap with Some c -> c | None -> List.length examples in
  let groups = Array.of_list (group_by_vector examples) in
  let ngroups = Array.length groups in
  let lower = consistency_lower_bound examples in
  let rec try_budget budget =
    Budget.tick ~what:"linsep: error budget search" ();
    if budget > cap then None
    else begin
      (* DFS assigning each group a forced side; prune on budget. *)
      let rec assign i err chosen =
        Budget.tick ~what:"linsep: group assignment search" ();
        if err > budget then None
        else if i >= ngroups then begin
          match separable chosen with
          | Some c -> Some (err, c)
          | None -> None
        end
        else begin
          let pos, neg, vec = groups.(i) in
          let keep_pos () =
            if pos > 0 || neg > 0 then
              assign (i + 1) (err + neg)
                ({ vec; label = Labeling.Pos } :: chosen)
            else assign (i + 1) err chosen
          in
          let keep_neg () =
            assign (i + 1) (err + pos) ({ vec; label = Labeling.Neg } :: chosen)
          in
          (* Try the cheaper side first. *)
          let first, second =
            if neg <= pos then (keep_pos, keep_neg) else (keep_neg, keep_pos)
          in
          match first () with Some r -> Some r | None -> second ()
        end
      in
      match assign 0 0 [] with
      | Some r -> Some r
      | None -> try_budget (budget + 1)
    end
  in
  try_budget lower

let min_errors_greedy ?(max_epochs = 200) examples =
  match examples with
  | [] -> (0, { weights = [||]; threshold = Rat.zero })
  | ex0 :: _ ->
      let n = Array.length ex0.vec in
      let w = Array.make n 0 in
      let bias = ref 0 in
      let classifier_of w bias =
        { weights = Array.map Rat.of_int w; threshold = Rat.of_int (-bias) }
      in
      let best = ref (errors (classifier_of w !bias) examples) in
      let best_c = ref (classifier_of w !bias) in
      let predict vec =
        let s = ref !bias in
        (* cqlint: allow R1 — dot product bounded by the feature dimension *)
        for i = 0 to n - 1 do
          s := !s + (w.(i) * vec.(i))
        done;
        if !s >= 0 then Labeling.Pos else Labeling.Neg
      in
      (try
         for _e = 1 to max_epochs do
           Budget.tick ~what:"linsep: perceptron epoch" ();
           let mistakes = ref 0 in
           List.iter
             (fun ex ->
               if not (Labeling.label_equal (predict ex.vec) ex.label)
               then begin
                 incr mistakes;
                 let dir = Labeling.label_sign ex.label in
                 (* cqlint: allow R1 — update bounded by the feature dimension *)
                 for i = 0 to n - 1 do
                   w.(i) <- w.(i) + (dir * ex.vec.(i))
                 done;
                 bias := !bias + dir;
                 let c = classifier_of (Array.copy w) !bias in
                 let e = errors c examples in
                 if e < !best then begin
                   best := e;
                   best_c := c
                 end
               end)
             examples;
           if !mistakes = 0 then raise Exit
         done
       with Exit -> ());
      (!best, !best_c)
