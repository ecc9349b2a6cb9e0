(* Tests for the numeric separation tier: float solvers (Cg,
   Fsimplex), the exact Certify layer, and the Nsep ladder.

   The headline property is agreement: over a large seeded family of
   planted / random / noisy instances, the float-first pipeline must
   return the same SEP/UNSEP verdict as the exact solver on every
   single instance — the certification spine makes this an invariant,
   not a statistic. *)

open Test_util

let ex v l = { Linsep.vec = Array.of_list v; label = l }
let pos = Labeling.Pos
let neg = Labeling.Neg

let and_data =
  [ ex [ 1; 1 ] pos; ex [ 1; -1 ] neg; ex [ -1; 1 ] neg; ex [ -1; -1 ] neg ]

let xor_data =
  [ ex [ 1; 1 ] pos; ex [ -1; -1 ] pos; ex [ 1; -1 ] neg; ex [ -1; 1 ] neg ]

(* --- Cg -------------------------------------------------------------- *)

let test_cg_fits_and () =
  let xs = [| [| 1.; 1. |]; [| 1.; -1. |]; [| -1.; 1. |]; [| -1.; -1. |] |] in
  let ys = [| 1.; -1.; -1.; -1. |] in
  (* Real regularization keeps the separable-instance optimum finite;
     with near-zero l2 the weights diverge and convergence is moot. *)
  let config = { Cg.default_config with l2 = 1e-2 } in
  let f = Cg.fit ~config ~xs ~ys () in
  (* The fitted hyperplane must put the positive row above every
     negative row. *)
  let margin x =
    f.Cg.bias +. (f.Cg.weights.(0) *. x.(0)) +. (f.Cg.weights.(1) *. x.(1))
  in
  Array.iteri
    (fun i x ->
      check bool_c "sign matches label" true (margin x *. ys.(i) > 0.))
    xs

let test_cg_l1_support () =
  (* Labels equal coordinate 0; coordinates 1 and 2 are exactly
     uncorrelated with the labels, so the smoothed-l1 path should
     shrink them out of the support. *)
  let xs =
    [|
      [| 1.; 1.; 1. |]; [| 1.; 1.; -1. |]; [| -1.; -1.; -1. |];
      [| -1.; 1.; 1. |]; [| 1.; -1.; 1. |]; [| -1.; 1.; 1. |];
    |]
  in
  let ys = [| 1.; 1.; -1.; -1.; 1.; -1. |] in
  let config = { Cg.default_config with l1 = 0.1; max_iters = 300 } in
  let f = Cg.fit ~config ~xs ~ys () in
  check (Alcotest.list int_c) "support is the planted coordinate" [ 0 ]
    (Cg.support ~threshold:0.05 f)

let test_cg_validation () =
  let bad () = ignore (Cg.fit ~xs:[| [| 1. |] |] ~ys:[| 0.5 |] ()) in
  (match bad () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "labels outside {±1} must raise");
  match Cg.fit ~xs:[| [| 1. |]; [| 1.; -1. |] |] ~ys:[| 1.; -1. |] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged rows must raise"

(* --- Fsimplex -------------------------------------------------------- *)

let sep_rows examples =
  (* The separation LP encoding over (w, w0): positive rows
     (vec,-1)·x ≥ 0, negative rows ≤ -1. *)
  let n = Array.length (List.hd examples).Linsep.vec in
  let rows =
    List.map
      (fun e ->
        let coeffs =
          Array.init (n + 1) (fun i ->
              if i < n then float_of_int e.Linsep.vec.(i) else -1.0)
        in
        match e.Linsep.label with
        | Labeling.Pos -> { Fsimplex.coeffs; op = Simplex.Ge; rhs = 0.0 }
        | Labeling.Neg -> { Fsimplex.coeffs; op = Simplex.Le; rhs = -1.0 })
      examples
  in
  (n + 1, rows)

let test_fsimplex_feasible () =
  let nvars, rows = sep_rows and_data in
  match Fsimplex.feasible ~nvars ~rows () with
  | Fsimplex.Feasible (x, q) ->
      check int_c "point length" nvars (Array.length x);
      check bool_c "well conditioned" true (Fsimplex.well_conditioned q)
  | Fsimplex.Infeasible _ -> Alcotest.fail "AND system is feasible"

let test_fsimplex_infeasible () =
  let nvars, rows = sep_rows xor_data in
  match Fsimplex.feasible ~nvars ~rows () with
  | Fsimplex.Infeasible (mu, _) ->
      check int_c "one multiplier per row" (List.length rows)
        (Array.length mu)
  | Fsimplex.Feasible _ -> Alcotest.fail "XOR system is infeasible"

let test_fsimplex_validation () =
  (match Fsimplex.feasible ~nvars:2 ~rows:[ { Fsimplex.coeffs = [| 1.0 |]; op = Simplex.Ge; rhs = 0.0 } ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "row length mismatch must raise");
  match Fsimplex.feasible ~nvars:1 ~rows:[ { Fsimplex.coeffs = [| Float.nan |]; op = Simplex.Ge; rhs = 0.0 } ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-finite coefficient must raise"

(* --- Certify --------------------------------------------------------- *)

let test_certify_hyperplane () =
  (* AND is separated by w = (1,1) with the right threshold; Certify
     must find that threshold itself. *)
  (match Certify.hyperplane ~weights:[| 1.0; 1.0 |] and_data with
  | Certify.Certified c ->
      List.iter
        (fun e ->
          check bool_c "classifies" true
            (Linsep.classify c e.Linsep.vec = e.Linsep.label))
        and_data
  | v -> Alcotest.fail ("AND direction must certify, got " ^ Certify.verdict_label v));
  (* A direction that is right only up to round-off must still
     certify: the exact threshold re-derivation absorbs the error. *)
  (match Certify.hyperplane ~weights:[| 1.0 +. 1e-13; 1.0 -. 1e-13 |] and_data with
  | Certify.Certified _ -> ()
  | v -> Alcotest.fail ("perturbed direction must certify, got " ^ Certify.verdict_label v));
  (* No direction separates XOR. *)
  (match Certify.hyperplane ~weights:[| 1.0; 1.0 |] xor_data with
  | Certify.Refuted _ -> ()
  | v -> Alcotest.fail ("XOR must refute, got " ^ Certify.verdict_label v));
  match Certify.hyperplane ~weights:[| Float.nan; 0.0 |] and_data with
  | Certify.Inconclusive _ -> ()
  | v -> Alcotest.fail ("nan weights must be inconclusive, got " ^ Certify.verdict_label v)

let test_certify_farkas () =
  (* Drive the real pipeline: float simplex on XOR, then the exact
     Farkas reconstruction from its multiplier candidate. *)
  let nvars, rows = sep_rows xor_data in
  (match Fsimplex.feasible ~nvars ~rows () with
  | Fsimplex.Infeasible (mu, _) -> (
      match Certify.farkas ~mu xor_data with
      | Certify.Certified () -> ()
      | v ->
          Alcotest.fail
            ("XOR farkas must certify, got " ^ Certify.verdict_label v))
  | Fsimplex.Feasible _ -> Alcotest.fail "XOR system is infeasible");
  (* A zero/degenerate multiplier vector cannot prove anything. *)
  match Certify.farkas ~mu:(Array.make 4 0.0) xor_data with
  | Certify.Inconclusive _ -> ()
  | v -> Alcotest.fail ("zero mu must be inconclusive, got " ^ Certify.verdict_label v)

(* The per-term [Rat] margin loop that certification used before it
   moved to integer margins over the common denominator, kept as the
   reference the current implementation must reproduce exactly. *)
let reference_hyperplane ~weights examples =
  match Array.map Rat.of_float weights with
  | exception Invalid_argument msg ->
      Certify.Inconclusive ("non-finite candidate: " ^ msg)
  | w -> (
      let margin vec =
        let acc = ref Rat.zero in
        Array.iteri
          (fun i wi -> acc := Rat.add !acc (Rat.mul wi (Rat.of_int vec.(i))))
          w;
        !acc
      in
      let min_pos = ref None and max_neg = ref None in
      List.iter
        (fun e ->
          let m = margin e.Linsep.vec in
          match e.Linsep.label with
          | Labeling.Pos ->
              min_pos :=
                Some (match !min_pos with None -> m | Some p -> Rat.min p m)
          | Labeling.Neg ->
              max_neg :=
                Some (match !max_neg with None -> m | Some q -> Rat.max q m))
        examples;
      let certified threshold = Certify.Certified { Linsep.weights = w; threshold } in
      match (!min_pos, !max_neg) with
      | None, None -> certified Rat.zero
      | Some p, None -> certified p
      | None, Some q -> certified (Rat.add q Rat.one)
      | Some p, Some q ->
          if Rat.compare q p < 0 then
            certified (Rat.div (Rat.add p q) (Rat.of_int 2))
          else Certify.Refuted "no threshold separates")

(* Weights mix zeros of both signs, subnormals, small and large
   exponents and exact integers; vectors are mostly ±1 with some
   other integers; labels come either from a threshold on the exact
   margins (so the candidate certifies) or at random. *)
let prop_hyperplane_reference =
  let open QCheck.Gen in
  let weight =
    frequency
      [
        (1, oneofl [ 0.0; -0.0; 1.0; -1.0; Float.min_float; -.Float.min_float ]);
        (1, map2 (fun m e -> Float.ldexp m e) (float_range (-1.0) 1.0) (int_range (-1074) (-1020)));
        (4, map2 (fun m e -> Float.ldexp m e) (float_range (-1.0) 1.0) (int_range (-60) 60));
        (1, map float_of_int (int_range (-9) 9));
      ]
  in
  let entry = frequency [ (6, oneofl [ 1; -1 ]); (1, int_range (-4) 4) ] in
  let gen =
    int_range 1 6 >>= fun dim ->
    array_size (return dim) weight >>= fun weights ->
    list_size (int_range 0 12) (array_size (return dim) entry) >>= fun vecs ->
    bool >>= fun planted ->
    list_size (return (List.length vecs)) bool >>= fun coins ->
    return (weights, vecs, planted, coins)
  in
  let print (w, vecs, planted, _) =
    Printf.sprintf "weights [%s], %d vectors, planted %b"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") w)))
      (List.length vecs) planted
  in
  QCheck.Test.make ~name:"hyperplane = per-term Rat reference" ~count:500
    (QCheck.make ~print gen) (fun (weights, vecs, planted, coins) ->
      let examples =
        if planted then begin
          (* Positive iff the exact margin reaches the median margin. *)
          let w = Array.map Rat.of_float weights in
          let margin v =
            let acc = ref Rat.zero in
            Array.iteri (fun i wi -> acc := Rat.add !acc (Rat.mul wi (Rat.of_int v.(i)))) w;
            !acc
          in
          let ms = List.sort Rat.compare (List.map margin vecs) in
          let cut = match ms with [] -> Rat.zero | _ -> List.nth ms (List.length ms / 2) in
          List.map
            (fun v ->
              { Linsep.vec = v; label = (if Rat.compare (margin v) cut >= 0 then pos else neg) })
            vecs
        end
        else List.map2 (fun v c -> { Linsep.vec = v; label = (if c then pos else neg) }) vecs coins
      in
      match (Certify.hyperplane ~weights examples, reference_hyperplane ~weights examples) with
      | Certify.Certified c, Certify.Certified r ->
          Array.for_all2 Rat.equal c.Linsep.weights r.Linsep.weights
          && Rat.equal c.threshold r.threshold
          || QCheck.Test.fail_reportf "threshold %s, reference %s"
               (Rat.to_string c.threshold) (Rat.to_string r.threshold)
      | Certify.Refuted _, Certify.Refuted _ -> true
      | Certify.Inconclusive _, Certify.Inconclusive _ -> true
      | got, expect ->
          QCheck.Test.fail_reportf "verdict %s, reference %s"
            (Certify.verdict_label got) (Certify.verdict_label expect))

(* --- Nsep ------------------------------------------------------------ *)

let test_decide_basics () =
  (match Nsep.decide and_data with
  | { Nsep.verdict = Nsep.Sep c; _ } ->
      List.iter
        (fun e ->
          check bool_c "classifies" true
            (Linsep.classify c e.Linsep.vec = e.Linsep.label))
        and_data
  | _ -> Alcotest.fail "AND must separate");
  (match Nsep.decide xor_data with
  | { Nsep.verdict = Nsep.Unsep; _ } -> ()
  | _ -> Alcotest.fail "XOR must not separate");
  (* Precheck shapes. *)
  (match Nsep.decide [] with
  | { Nsep.verdict = Nsep.Sep _; provenance = Nsep.Certified_precheck } -> ()
  | _ -> Alcotest.fail "empty collection is trivially separable");
  (match Nsep.decide [ ex [ 1 ] pos; ex [ 1 ] neg ] with
  | { Nsep.verdict = Nsep.Unsep; provenance = Nsep.Certified_precheck } -> ()
  | _ -> Alcotest.fail "inconsistent collection precheck");
  match Nsep.decide [ ex [ 1 ] neg; ex [ -1 ] neg ] with
  | { Nsep.verdict = Nsep.Sep _; provenance = Nsep.Certified_precheck } -> ()
  | _ -> Alcotest.fail "one-sided collection precheck"

let test_decide_tiers () =
  (match Nsep.decide ~tier:Nsep.Exact_only and_data with
  | { Nsep.verdict = Nsep.Sep _; provenance = Nsep.Exact_solve _ } -> ()
  | _ -> Alcotest.fail "exact-only must route to the exact solver");
  (* escalate:false can say Unknown but never a wrong verdict; on this
     easy instance the numeric tier should just certify. *)
  match Nsep.decide ~tier:Nsep.Numeric ~escalate:false and_data with
  | { Nsep.verdict = Nsep.Sep _; _ } -> ()
  | { Nsep.verdict = Nsep.Unknown _; _ } -> ()
  | _ -> Alcotest.fail "numeric tier gave a wrong verdict"

let test_decide_stats () =
  Runtime_state.reset_all ();
  ignore (Nsep.decide and_data);
  ignore (Nsep.decide xor_data);
  ignore (Nsep.decide ~tier:Nsep.Exact_only and_data);
  let s = Nsep.stats () in
  check int_c "decided" 3 s.Nsep.decided;
  check int_c "sum matches" s.Nsep.decided
    (s.Nsep.certified_cg + s.Nsep.certified_simplex
    + s.Nsep.certified_precheck + s.Nsep.exact_solves + s.Nsep.uncertified);
  check bool_c "escalations bounded" true
    (s.Nsep.escalations <= s.Nsep.exact_solves);
  Runtime_state.reset_all ();
  check int_c "reset" 0 (Nsep.stats ()).Nsep.decided

let test_decide_with_fallback () =
  (match Nsep.decide_with_fallback and_data with
  | Ok { Nsep.verdict = Nsep.Sep _; _ } -> ()
  | Ok _ -> Alcotest.fail "ladder returned a wrong verdict"
  | Error _ -> Alcotest.fail "ladder must not fail unbudgeted");
  (* A starved deadline surfaces as a guard failure, not a crash. *)
  match
    Nsep.decide_with_fallback
      ~budget:(Budget.make ~fuel:5 ())
      (Planted.linsep_instance ~seed:0 ~dim:8 ~n:40)
  with
  | Error f -> check bool_c "resource failure" true (Guard.is_resource_failure f)
  | Ok _ -> Alcotest.fail "5 ticks cannot decide a 40-row instance"

(* The agreement property: the certified numeric pipeline and the
   exact solver return the identical SEP/UNSEP bit on every instance
   of the seeded family (planted, random, and noisy regimes all
   exercised via seed mod 3). *)
let prop_numeric_agrees_with_exact =
  QCheck.Test.make ~name:"nsep numeric = exact on 1000 seeded instances"
    ~count:1000
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let dim = 2 + (seed mod 5) in
      let n = 4 + (seed mod 23) in
      let examples = Planted.linsep_instance ~seed ~dim ~n in
      let exact = Linsep.is_separable examples in
      let numeric =
        match (Nsep.decide ~tier:Nsep.Numeric examples).Nsep.verdict with
        | Nsep.Sep c ->
            (* A Sep must come with a witness that actually separates. *)
            List.for_all
              (fun e -> Linsep.classify c e.Linsep.vec = e.Linsep.label)
              examples
            || QCheck.Test.fail_report "Sep witness misclassifies"
        | Nsep.Unsep -> false
        | Nsep.Unknown r -> QCheck.Test.fail_report ("Unknown escaped: " ^ r)
      in
      numeric = exact)

(* --- golden model bytes ------------------------------------------------ *)

(* Models trained the way the end-to-end benchmark's inputs are built
   (seed 1): a 20-node typed graph labeled by a planted acyclic CQ[3]
   query and doubled, once as is (separable) and once with three labels
   flipped (refuted, so the classifier comes from [min_errors_exact]),
   and a 40-node graph labeled by a CQ[2] query for serving. The
   digests were taken before certification and classification moved to
   integer arithmetic over a common denominator; exact answers must not
   change a byte of the saved model. The refuted model is pinned on both
   tiers: its ApxSep leaves are decided by [Nsep], so the witness is the
   exact simplex's vertex under [Exact_only] (the original digest) and
   the certified CG fit under [Numeric]; the optimum, 3, is the same. *)
let sub_seed i role = (((1 * 1_000_003) + i) * 8) + (2 * role)

let typed_graph ~seed ~nodes ~edges ~unary =
  let e =
    Gen_db.random_db ~seed ~schema:[ ("E", 2) ] ~domain_size:nodes
      ~facts_per_rel:edges ()
  in
  let r =
    Gen_db.random_db ~seed:(seed + 1) ~schema:[ ("R", 1) ] ~domain_size:nodes
      ~facts_per_rel:unary ()
  in
  List.fold_left
    (fun db i -> Db.add_entity (Elem.sym (Printf.sprintf "v%d" i)) db)
    (Db.union e r) (List.init nodes Fun.id)

let loops_marked db =
  List.fold_left
    (fun db f ->
      match (Fact.rel f, Fact.args f) with
      | "R", [| v |] -> Db.add (Fact.make_l "E" [ v; v ]) db
      | "E", [| a; b |] when Elem.equal a b -> Db.add (Fact.make_l "R" [ a ]) db
      | _ -> db)
    db (Db.facts db)

let model_digest ~m ~refuted t =
  let t =
    Textfmt.training_of_document
      (Textfmt.parse_string (Textfmt.print_training t))
  in
  let stat = Atoms_sep.pruned_features ~m t in
  let examples = Statistic.examples stat t in
  let c =
    match ((Nsep.decide examples).Nsep.verdict, refuted) with
    | Nsep.Sep c, false -> c
    | Nsep.Unsep, true -> (
        match Linsep.min_errors_exact ~cap:8 examples with
        | Some (err, c) ->
            check int_c "ApxSep optimum" 3 err;
            c
        | None -> Alcotest.fail "no classifier within 8 errors")
    | _ -> Alcotest.fail "unexpected separability verdict"
  in
  Digest.to_hex (Digest.string (Model_io.to_string_checksummed (Model_io.make stat c)))

let test_golden_models () =
  let planted3 = Cq_parse.parse "x :- E(x,y), E(y,z), R(z)" in
  let planted2 = Cq_parse.parse "x :- E(x,y), R(y)" in
  let cqm i =
    Families.copies
      (Planted.label_by_query
         (typed_graph ~seed:(sub_seed i 0) ~nodes:20 ~edges:30 ~unary:7)
         planted3)
      2
  in
  check string_c "separable CQ[3] model" "4b20a1174b0b6d187743f4e06c6cd286"
    (model_digest ~m:3 ~refuted:false (cqm 0));
  let refuted = Planted.flip_labels ~seed:(sub_seed 4 2) ~count:3 (cqm 4) in
  let saved = Nsep.current_tier () in
  Nsep.set_tier Nsep.Exact_only;
  let exact_only =
    Fun.protect
      ~finally:(fun () -> Nsep.set_tier saved)
      (fun () -> model_digest ~m:3 ~refuted:true refuted)
  in
  check string_c "refuted CQ[3] model, exact-only tier"
    "27a486e22cd15276255e64e235ba8ead" exact_only;
  check string_c "refuted CQ[3] model" "acae757cc2f60b15e07ade9758aaca35"
    (model_digest ~m:3 ~refuted:true refuted);
  check string_c "CQ[2] serving model" "951bdf489a40c79a71f0a5baa98e4186"
    (model_digest ~m:2 ~refuted:false
       (Planted.label_by_query
          (loops_marked (typed_graph ~seed:(sub_seed 0 0) ~nodes:40 ~edges:60 ~unary:13))
          planted2))

let () =
  Alcotest.run "nsep"
    [
      ( "cg",
        [
          Alcotest.test_case "fits AND" `Quick test_cg_fits_and;
          Alcotest.test_case "l1 support recovery" `Quick test_cg_l1_support;
          Alcotest.test_case "input validation" `Quick test_cg_validation;
        ] );
      ( "fsimplex",
        [
          Alcotest.test_case "feasible point" `Quick test_fsimplex_feasible;
          Alcotest.test_case "farkas candidate" `Quick test_fsimplex_infeasible;
          Alcotest.test_case "input validation" `Quick test_fsimplex_validation;
        ] );
      ( "certify",
        [
          Alcotest.test_case "hyperplane" `Quick test_certify_hyperplane;
          Alcotest.test_case "farkas" `Quick test_certify_farkas;
          qcheck prop_hyperplane_reference;
        ] );
      ( "nsep",
        [
          Alcotest.test_case "decide basics" `Quick test_decide_basics;
          Alcotest.test_case "tiers" `Quick test_decide_tiers;
          Alcotest.test_case "stats counters" `Quick test_decide_stats;
          Alcotest.test_case "fallback ladder" `Quick test_decide_with_fallback;
          qcheck prop_numeric_agrees_with_exact;
        ] );
      ("golden", [ Alcotest.test_case "model bytes" `Quick test_golden_models ]);
    ]
