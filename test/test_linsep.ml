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

(* Random data labeled by a random hyperplane must be separable, and
   the returned classifier must have zero error. *)
let labeled_by_plane =
  let open QCheck.Gen in
  let gen =
    int_range 1 4 >>= fun dim ->
    int_range 1 10 >>= fun n ->
    list_size (return dim) (int_range (-3) 3) >>= fun w ->
    int_range (-2) 2 >>= fun w0 ->
    list_size (return n)
      (list_size (return dim) (oneofl [ 1; -1 ]))
    >>= fun vecs -> return (w, w0, vecs)
  in
  QCheck.make gen

let prop_plane_labeled_separable =
  QCheck.Test.make ~name:"hyperplane-labeled data separable with 0 errors"
    ~count:200 labeled_by_plane (fun (w, w0, vecs) ->
      let examples =
        List.map
          (fun v ->
            let s = List.fold_left2 (fun acc a b -> acc + (a * b)) 0 w v in
            ex v (if s >= w0 then pos else neg))
          vecs
      in
      match Linsep.separable examples with
      | Some c -> Linsep.errors c examples = 0
      | None -> false)

let prop_min_errors_bounds =
  QCheck.Test.make ~name:"lower bound <= exact <= greedy" ~count:60
    labeled_by_plane (fun (_, _, vecs) ->
      (* adversarial labels: alternate *)
      let examples =
        List.mapi (fun i v -> ex v (if i mod 2 = 0 then pos else neg)) vecs
      in
      let lb = Linsep.consistency_lower_bound examples in
      let greedy, _ = Linsep.min_errors_greedy examples in
      match Linsep.min_errors_exact examples with
      | Some (exact, c) ->
          lb <= exact && exact <= greedy
          && Linsep.errors c examples = exact
      | None -> false)

let prop_perceptron_on_separable =
  QCheck.Test.make ~name:"perceptron converges on separable data"
    ~count:100 labeled_by_plane (fun (w, w0, vecs) ->
      let examples =
        List.map
          (fun v ->
            let s = List.fold_left2 (fun acc a b -> acc + (a * b)) 0 w v in
            ex v (if s >= w0 then pos else neg))
          vecs
      in
      let c, converged = Linsep.perceptron ~max_epochs:2000 examples in
      (not converged) || Linsep.errors c examples = 0)

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
          qcheck prop_perceptron_on_separable;
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
