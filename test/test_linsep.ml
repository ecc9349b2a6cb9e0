(* Tests for linear separability of ±1 training collections. *)

open Test_util

let ex v l = { Linsep.vec = Array.of_list v; label = l }
let pos = Labeling.Pos
let neg = Labeling.Neg

let test_and_or () =
  let and_data =
    [ ex [ 1; 1 ] pos; ex [ 1; -1 ] neg; ex [ -1; 1 ] neg; ex [ -1; -1 ] neg ]
  in
  (match Linsep.separable and_data with
  | Some c -> check int_c "AND errors" 0 (Linsep.errors c and_data)
  | None -> Alcotest.fail "AND must be separable");
  let or_data =
    [ ex [ 1; 1 ] pos; ex [ 1; -1 ] pos; ex [ -1; 1 ] pos; ex [ -1; -1 ] neg ]
  in
  check bool_c "OR separable" true (Linsep.is_separable or_data)

let test_xor () =
  let xor =
    [ ex [ 1; 1 ] pos; ex [ -1; -1 ] pos; ex [ 1; -1 ] neg; ex [ -1; 1 ] neg ]
  in
  check bool_c "XOR not separable" false (Linsep.is_separable xor);
  check bool_c "XOR is consistent" true (Linsep.separable_iff_consistent xor);
  match Linsep.min_errors_exact xor with
  | Some (e, c) ->
      check int_c "XOR min errors" 1 e;
      check int_c "witness verifies" 1 (Linsep.errors c xor)
  | None -> Alcotest.fail "XOR min errors must exist"

let test_inconsistent () =
  let data = [ ex [ 1 ] pos; ex [ 1 ] neg; ex [ 1 ] neg ] in
  check bool_c "not consistent" false (Linsep.separable_iff_consistent data);
  check bool_c "not separable" false (Linsep.is_separable data);
  check int_c "lower bound" 1 (Linsep.consistency_lower_bound data);
  match Linsep.min_errors_exact data with
  | Some (e, _) -> check int_c "min errors = minority" 1 e
  | None -> Alcotest.fail "must exist"

let test_empty_and_trivial () =
  check bool_c "empty separable" true (Linsep.is_separable []);
  check bool_c "single example" true (Linsep.is_separable [ ex [ 1; -1 ] pos ]);
  check bool_c "all same label" true
    (Linsep.is_separable [ ex [ 1 ] pos; ex [ -1 ] pos ])

let plane_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun dim ->
  int_range 1 10 >>= fun n ->
  list_size (return dim) (int_range (-3) 3) >>= fun w ->
  int_range (-2) 2 >>= fun w0 ->
  list_size (return n) (list_size (return dim) (oneofl [ 1; -1 ]))
  >>= fun vecs -> return (w, w0, vecs)

let labeled_by_plane = QCheck.make plane_gen

let plane_label w w0 v =
  if List.fold_left2 (fun acc a b -> acc + (a * b)) 0 w v >= w0 then pos
  else neg

(* Random data labeled by a random hyperplane must be separable, and
   the returned classifier must have zero error. *)
let prop_plane_labeled_separable =
  QCheck.Test.make ~name:"hyperplane-labeled data separable with 0 errors"
    ~count:200 labeled_by_plane (fun (w, w0, vecs) ->
      let examples = List.map (fun v -> ex v (plane_label w w0 v)) vecs in
      match Linsep.separable examples with
      | Some c -> Linsep.errors c examples = 0
      | None -> false)

let prop_min_errors_bounds =
  QCheck.Test.make ~name:"lower bound <= exact = reference" ~count:60
    labeled_by_plane (fun (_, _, vecs) ->
      (* adversarial labels: alternate *)
      let examples =
        List.mapi (fun i v -> ex v (if i mod 2 = 0 then pos else neg)) vecs
      in
      let lb = Linsep.consistency_lower_bound examples in
      match
        (Linsep.min_errors_exact examples, Linsep_ref.min_errors_exact examples)
      with
      | Some (exact, c), Some (reference, _) ->
          lb <= exact && exact = reference
          && Linsep.errors c examples = exact
      | _ -> false)

(* --- ApxSep against the exact-simplex reference ------------------------ *)

let classifier_equal (a : Linsep.classifier) (b : Linsep.classifier) =
  Array.length a.weights = Array.length b.weights
  && Array.for_all2 Rat.equal a.weights b.weights
  && Rat.equal a.threshold b.threshold

(* A leaf whose kept groups all carry one label is answered by
   [Nsep]'s exact precheck with a constant classifier (zero weights) on
   either tier, where the reference runs the simplex. The witness
   separates its leaf, so such a leaf shows as a witness that gives
   every distinct vector the same label. *)
let constant_on_groups c examples =
  let classify = Linsep.classify c in
  match
    List.map (fun (_, _, v) -> classify v) (Linsep.group_by_vector examples)
  with
  | [] -> true
  | l :: rest -> List.for_all (Labeling.label_equal l) rest

let with_tier tier f =
  let saved = Nsep.current_tier () in
  Nsep.set_tier tier;
  Fun.protect ~finally:(fun () -> Nsep.set_tier saved) f

(* Plane-labeled data and, in two or three dimensions, parity (XOR)
   labels over repeated vectors, each with about a quarter of the
   labels flipped and an optional error cap. Parity labels make many
   leaves infeasible, so the search runs through Farkas certificates
   and deepens its budget, not only through its first leaf. *)
let apx_instance =
  let open QCheck.Gen in
  let flips n = list_size (return n) (map (fun k -> k = 0) (int_bound 3)) in
  let flip f l = if f then Labeling.flip l else l in
  let plane =
    plane_gen >>= fun (w, w0, vecs) ->
    flips (List.length vecs) >>= fun fs ->
    return (List.map2 (fun v f -> ex v (flip f (plane_label w w0 v))) vecs fs)
  in
  let parity =
    int_range 2 3 >>= fun dim ->
    int_range 4 14 >>= fun n ->
    list_size (return n) (list_size (return dim) (oneofl [ 1; -1 ]))
    >>= fun vecs ->
    flips n >>= fun fs ->
    return
      (List.map2
         (fun v f ->
           let x = List.nth v 0 * List.nth v 1 in
           ex v (flip f (if x > 0 then pos else neg)))
         vecs fs)
  in
  let print (examples, cap) =
    Printf.sprintf "cap=%s %s"
      (Option.fold ~none:"-" ~some:string_of_int cap)
      (String.concat " "
         (List.map
            (fun e ->
              Printf.sprintf "%s%s"
                (if Labeling.label_equal e.Linsep.label pos then "+" else "-")
                (String.concat ","
                   (List.map string_of_int (Array.to_list e.Linsep.vec))))
            examples))
  in
  QCheck.make ~print
    (pair (frequency [ (3, plane); (2, parity) ]) (opt (int_bound 3)))

let prop_min_errors_reference =
  QCheck.Test.make ~name:"min_errors_exact = exact-simplex reference"
    ~count:300 apx_instance (fun (examples, cap) ->
      let expected = Linsep_ref.min_errors_exact ?cap examples in
      let agrees tier =
        let got =
          with_tier tier (fun () -> Linsep.min_errors_exact ?cap examples)
        in
        match (got, expected) with
        | None, None -> true
        | Some (err, c), Some (err', c') ->
            (err = err'
            || QCheck.Test.fail_reportf "optimum %d, reference %d" err err')
            && (Linsep.errors c examples = err
               || QCheck.Test.fail_report "witness errors differ from optimum")
            && (tier = Nsep.Numeric || classifier_equal c c'
               || (constant_on_groups c examples
                  && Array.for_all (Rat.equal Rat.zero) c.weights)
               || QCheck.Test.fail_report "Exact_only classifier differs")
        | Some _, None | None, Some _ ->
            QCheck.Test.fail_report "None under the cap on one side only"
      in
      agrees Nsep.Numeric && agrees Nsep.Exact_only)

(* Parity on two coordinates: the labels as given are inseparable, so
   the budget-0 leaf is refuted before a budget-1 leaf separates. With
   no exact solve, that refutation is a certified Farkas combination. *)
let test_min_errors_refuted_leaf () =
  let xor =
    [ ex [ 1; 1 ] pos; ex [ -1; -1 ] pos; ex [ 1; -1 ] neg; ex [ -1; 1 ] neg ]
  in
  let before = Nsep.stats () in
  (match with_tier Nsep.Numeric (fun () -> Linsep.min_errors_exact xor) with
  | Some (e, c) ->
      check int_c "optimum" 1 e;
      check int_c "witness errors" 1 (Linsep.errors c xor)
  | None -> Alcotest.fail "XOR min errors must exist");
  let after = Nsep.stats () in
  check bool_c "at least two leaves decided" true
    (after.Nsep.decided - before.Nsep.decided >= 2);
  check bool_c "certified by the float simplex's candidates" true
    (after.Nsep.certified_simplex > before.Nsep.certified_simplex);
  check int_c "no exact solve" 0
    (after.Nsep.exact_solves - before.Nsep.exact_solves)

(* --- chain classifier ------------------------------------------------- *)

(* Random chain structures: a random preorder refinement of the
   identity, encoded as "below j i iff j <= i and bit (i,j) set" plus
   reflexivity and downward closure to keep it a valid topologically-
   sorted preorder reduct. For the classifier only the labels matter;
   vectors come from chain_vector. *)
let prop_chain_classifier_correct =
  QCheck.Test.make ~name:"chain classifier classifies every class"
    ~count:200
    (QCheck.pair (QCheck.int_range 1 8) (QCheck.int_range 0 255))
    (fun (m, mask) ->
      let labels =
        Array.init m (fun i -> if mask land (1 lsl i) <> 0 then pos else neg)
      in
      (* below j i: transitive chain prefix — here a simple linear
         order restricted by a second mask bit pattern *)
      let below j i = j = i || (j < i && (mask lsr (j + i)) land 1 = 0) in
      let c = Linsep.chain_classifier ~labels ~below in
      Array.to_list
        (Array.mapi
           (fun i lab ->
             let v = Linsep.chain_vector ~below ~m i in
             Labeling.label_equal (Linsep.classify c v) lab)
           labels)
      |> List.for_all (fun b -> b))

let test_chain_rejects_nontopological () =
  match
    Linsep.chain_classifier
      ~labels:[| pos; neg |]
      ~below:(fun j i -> j >= i)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-topological order must be rejected"

let test_chain_large_is_exact () =
  (* 40 classes: weights overflow floats; exact bigint arithmetic must
     still classify correctly. *)
  let m = 40 in
  let labels = Array.init m (fun i -> if i mod 3 = 0 then pos else neg) in
  let below j i = j <= i in
  let c = Linsep.chain_classifier ~labels ~below in
  Array.iteri
    (fun i lab ->
      let v = Linsep.chain_vector ~below ~m i in
      check bool_c
        (Printf.sprintf "class %d" i)
        true
        (Labeling.label_equal (Linsep.classify c v) lab))
    labels

(* --- classify ---------------------------------------------------------- *)

let test_classify_dimension () =
  let c =
    { Linsep.weights = [| Rat.one; Rat.of_ints 1 2 |]; threshold = Rat.zero }
  in
  let mismatch = Invalid_argument "Linsep.classify: dimension mismatch" in
  Alcotest.check_raises "short vector" mismatch (fun () ->
      ignore (Linsep.classify c [| 1 |]));
  Alcotest.check_raises "long vector" mismatch (fun () ->
      ignore (Linsep.classify c [| 1; 1; -1 |]));
  check bool_c "matching vector" true
    (Labeling.label_equal (Linsep.classify c [| 1; -1 |]) pos)

(* The staged classifier (integers over a common denominator) against
   the dot product in [Rat], on integer vectors beyond ±1 and weights
   that mix integers, fractions and float dyadics. *)
let prop_classify_reference =
  let open QCheck.Gen in
  let weight =
    frequency
      [
        (2, map Rat.of_int (int_range (-20) 20));
        (2, map2 Rat.of_ints (int_range (-200) 200) (int_range 1 40));
        ( 3,
          map2
            (fun m e -> Rat.of_float (Float.ldexp m e))
            (float_range (-1.0) 1.0) (int_range (-60) 20) );
      ]
  in
  let gen =
    int_range 0 6 >>= fun dim ->
    array_size (return dim) weight >>= fun weights ->
    weight >>= fun threshold ->
    list_size (int_range 1 8) (array_size (return dim) (int_range (-6) 6))
    >>= fun vecs -> return ({ Linsep.weights; threshold }, vecs)
  in
  QCheck.Test.make ~name:"staged classify = Rat dot product" ~count:500
    (QCheck.make gen) (fun (c, vecs) ->
      let classify = Linsep.classify c in
      List.for_all
        (fun v ->
          let dot = ref Rat.zero in
          Array.iteri
            (fun i w -> dot := Rat.add !dot (Rat.mul w (Rat.of_int v.(i))))
            c.Linsep.weights;
          let expect = if Rat.compare !dot c.threshold >= 0 then pos else neg in
          Labeling.label_equal (classify v) expect)
        vecs)

let () =
  Alcotest.run "linsep"
    [
      ( "separability",
        [
          Alcotest.test_case "and/or" `Quick test_and_or;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "inconsistent" `Quick test_inconsistent;
          Alcotest.test_case "trivial" `Quick test_empty_and_trivial;
          qcheck prop_plane_labeled_separable;
          qcheck prop_min_errors_bounds;
          qcheck prop_min_errors_reference;
          Alcotest.test_case "refuted leaf" `Quick test_min_errors_refuted_leaf;
        ] );
      ( "chain",
        [
          Alcotest.test_case "rejects non-topological" `Quick
            test_chain_rejects_nontopological;
          Alcotest.test_case "large exact" `Quick test_chain_large_is_exact;
          qcheck prop_chain_classifier_correct;
        ] );
      ( "classify",
        [
          Alcotest.test_case "dimension mismatch" `Quick test_classify_dimension;
          qcheck prop_classify_reference;
        ] );
    ]
