(* Tests for the exact rational simplex. *)

open Test_util

let r coeffs op rhs =
  {
    Simplex.coeffs = Array.of_list (List.map Rat.of_int coeffs);
    op;
    rhs = Rat.of_int rhs;
  }

let obj l = Array.of_list (List.map Rat.of_int l)

let test_optimal_corner () =
  match
    Simplex.solve ~nvars:2
      ~rows:
        [
          r [ 1; 1 ] Simplex.Le 3;
          r [ 1; 0 ] Simplex.Le 2;
          r [ 0; 1 ] Simplex.Le 2;
          r [ 1; 0 ] Simplex.Ge 0;
          r [ 0; 1 ] Simplex.Ge 0;
        ]
      ~objective:(obj [ -1; -1 ]) ()
  with
  | Simplex.Optimal (x, v) ->
      check bool_c "objective -3" true (Rat.equal v (Rat.of_int (-3)));
      check bool_c "on boundary" true
        (Rat.equal (Rat.add x.(0) x.(1)) (Rat.of_int 3))
  | _ -> Alcotest.fail "expected optimal"

let test_infeasible () =
  match
    Simplex.solve ~nvars:1
      ~rows:[ r [ 1 ] Simplex.Ge 5; r [ 1 ] Simplex.Le 3 ]
      ~objective:(obj [ 0 ]) ()
  with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  match
    Simplex.solve ~nvars:1 ~rows:[ r [ 1 ] Simplex.Ge 0 ]
      ~objective:(obj [ -1 ]) ()
  with
  | Simplex.Unbounded _ -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_equality_rows () =
  match
    Simplex.solve ~nvars:2
      ~rows:[ r [ 1; 1 ] Simplex.Eq 4; r [ 1; -1 ] Simplex.Eq 2 ]
      ~objective:(obj [ 0; 0 ]) ()
  with
  | Simplex.Optimal (x, _) ->
      check bool_c "x=3" true (Rat.equal x.(0) (Rat.of_int 3));
      check bool_c "y=1" true (Rat.equal x.(1) (Rat.of_int 1))
  | _ -> Alcotest.fail "expected optimal"

let test_free_variables () =
  (* minimize x subject to x >= -7: negative optimum requires the
     free-variable split to work *)
  match
    Simplex.solve ~nvars:1
      ~rows:[ r [ 1 ] Simplex.Ge (-7) ]
      ~objective:(obj [ 1 ]) ()
  with
  | Simplex.Optimal (x, v) ->
      check bool_c "x=-7" true (Rat.equal x.(0) (Rat.of_int (-7)));
      check bool_c "obj=-7" true (Rat.equal v (Rat.of_int (-7)))
  | _ -> Alcotest.fail "expected optimal"

let test_degenerate_redundant () =
  (* redundant equality rows: phase I leaves an artificial basic in a
     zero row; must still solve *)
  match
    Simplex.solve ~nvars:2
      ~rows:
        [
          r [ 1; 1 ] Simplex.Eq 2;
          r [ 2; 2 ] Simplex.Eq 4;
          r [ 1; 0 ] Simplex.Ge 0;
        ]
      ~objective:(obj [ 1; 0 ]) ()
  with
  | Simplex.Optimal (x, v) ->
      check bool_c "solution valid" true
        (Simplex.check_solution
           ~rows:[ r [ 1; 1 ] Simplex.Eq 2; r [ 2; 2 ] Simplex.Eq 4 ]
           x);
      check bool_c "min x = 0" true (Rat.is_zero v)
  | _ -> Alcotest.fail "expected optimal"

let test_fractional () =
  (* 2x = 1 -> x = 1/2 exactly *)
  match Simplex.feasible ~nvars:1 ~rows:[ r [ 2 ] Simplex.Eq 1 ] () with
  | Some x -> check bool_c "exact 1/2" true (Rat.equal x.(0) (Rat.of_ints 1 2))
  | None -> Alcotest.fail "expected feasible"

(* Random LPs built to be feasible by construction: pick a witness x0,
   make every row satisfied by x0. The solver must find some feasible
   point and, when minimizing, reach an objective no worse than x0's. *)
let lp_case =
  let open QCheck.Gen in
  let coeff = int_range (-4) 4 in
  let gen =
    int_range 1 3 >>= fun nvars ->
    int_range 1 5 >>= fun nrows ->
    list_size (return nvars) coeff >>= fun x0 ->
    list_size (return nrows) (list_size (return nvars) coeff) >>= fun rows ->
    list_size (return nrows) (int_range 0 2) >>= fun ops ->
    list_size (return nvars) coeff >>= fun objective ->
    return (nvars, x0, rows, ops, objective)
  in
  QCheck.make gen

let prop_feasible_by_construction =
  QCheck.Test.make ~name:"witnessed LPs are solved and verified" ~count:200
    lp_case (fun (nvars, x0, rows, ops, objective) ->
      let dot c = List.fold_left2 (fun acc a b -> acc + (a * b)) 0 c x0 in
      let rows =
        List.map2
          (fun c op ->
            let v = dot c in
            match op with
            | 0 -> r c Simplex.Le v
            | 1 -> r c Simplex.Ge v
            | _ -> r c Simplex.Eq v)
          rows ops
      in
      match
        Simplex.solve ~nvars ~rows ~objective:(obj objective) ()
      with
      | Simplex.Infeasible -> false
      | Simplex.Unbounded x -> Simplex.check_solution ~rows x
      | Simplex.Optimal (x, v) ->
          let obj_at_x0 =
            List.fold_left2 (fun acc a b -> acc + (a * b)) 0 objective x0
          in
          Simplex.check_solution ~rows x
          && Rat.compare v (Rat.of_int obj_at_x0) <= 0)

let prop_optimal_is_exact_on_box =
  QCheck.Test.make ~name:"box LPs: optimum equals corner value" ~count:100
    (QCheck.pair (QCheck.int_range (-5) 5) (QCheck.int_range (-5) 5))
    (fun (a, b) ->
      (* minimize a*x + b*y over the box [0,1]^2: optimum = min(a,0) + min(b,0) *)
      match
        Simplex.solve ~nvars:2
          ~rows:
            [
              r [ 1; 0 ] Simplex.Ge 0;
              r [ 1; 0 ] Simplex.Le 1;
              r [ 0; 1 ] Simplex.Ge 0;
              r [ 0; 1 ] Simplex.Le 1;
            ]
          ~objective:(obj [ a; b ]) ()
      with
      | Simplex.Optimal (_, v) ->
          Rat.equal v (Rat.of_int (min a 0 + min b 0))
      | _ -> false)

let test_rational_coefficients () =
  (* x/3 + y/7 = 1, x = y: x = y = 21/10 *)
  let row coeffs op rhs = { Simplex.coeffs; op; rhs } in
  match
    Simplex.solve ~nvars:2
      ~rows:
        [
          row [| Rat.of_ints 1 3; Rat.of_ints 1 7 |] Simplex.Eq Rat.one;
          row [| Rat.one; Rat.minus_one |] Simplex.Eq Rat.zero;
        ]
      ~objective:[| Rat.zero; Rat.zero |] ()
  with
  | Simplex.Optimal (x, _) ->
      check bool_c "x = 21/10" true (Rat.equal x.(0) (Rat.of_ints 21 10));
      check bool_c "y = 21/10" true (Rat.equal x.(1) (Rat.of_ints 21 10))
  | _ -> Alcotest.fail "expected optimal"

let test_zero_rows () =
  (* no constraints: any point is feasible, objective unbounded below *)
  (match
     Simplex.solve ~nvars:1 ~rows:[] ~objective:[| Rat.one |] ()
   with
  | Simplex.Unbounded _ -> ()
  | Simplex.Optimal (_, v) ->
      (* minimizing x with no constraints: unbounded... an optimal of
         any value would be wrong *)
      Alcotest.failf "expected unbounded, got optimal %s" (Rat.to_string v)
  | Simplex.Infeasible -> Alcotest.fail "expected unbounded");
  match Simplex.feasible ~nvars:2 ~rows:[] () with
  | Some _ -> ()
  | None -> Alcotest.fail "empty system is feasible"

let test_beale_cycling () =
  (* Beale's classic degenerate LP, on which Dantzig pricing with a
     naive tie-break cycles forever:
       min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4
       s.t. 1/4 x1 - 60 x2 - 1/25 x3 + 9 x4 <= 0
            1/2 x1 - 90 x2 - 1/50 x3 + 3 x4 <= 0
            x3 <= 1,  x >= 0
     The optimum is -1/20 at x = (1/25, 0, 1, 0); the Bland fallback
     (or the pivot cap) must prevent an infinite pivot loop. *)
  let q a b = Rat.of_ints a b in
  let row coeffs op rhs = { Simplex.coeffs = Array.of_list coeffs; op; rhs } in
  let rows =
    [
      row [ q 1 4; q (-60) 1; q (-1) 25; q 9 1 ] Simplex.Le Rat.zero;
      row [ q 1 2; q (-90) 1; q (-1) 50; q 3 1 ] Simplex.Le Rat.zero;
      row [ Rat.zero; Rat.zero; Rat.one; Rat.zero ] Simplex.Le Rat.one;
      row [ Rat.one; Rat.zero; Rat.zero; Rat.zero ] Simplex.Ge Rat.zero;
      row [ Rat.zero; Rat.one; Rat.zero; Rat.zero ] Simplex.Ge Rat.zero;
      row [ Rat.zero; Rat.zero; Rat.one; Rat.zero ] Simplex.Ge Rat.zero;
      row [ Rat.zero; Rat.zero; Rat.zero; Rat.one ] Simplex.Ge Rat.zero;
    ]
  in
  let objective = [| q (-3) 4; q 150 1; q (-1) 50; q 6 1 |] in
  match Simplex.solve ~nvars:4 ~rows ~objective () with
  | Simplex.Optimal (_, v) ->
      check bool_c "objective -1/20" true (Rat.equal v (Rat.of_ints (-1) 20))
  | _ -> Alcotest.fail "expected optimal"

let test_solve_fuel () =
  let rows =
    [
      r [ 1; 1 ] Simplex.Le 3;
      r [ 1; 0 ] Simplex.Ge 0;
      r [ 0; 1 ] Simplex.Ge 0;
    ]
  in
  (* fuel 1: the first pivot tick must surface as a structured error *)
  (match
     Guard.run (Budget.make ~fuel:1 ()) (fun () ->
         Simplex.solve ~nvars:2 ~rows ~objective:(obj [ -1; -1 ]) ())
   with
  | Error (Guard.Fuel_exhausted _) -> ()
  | Error f -> Alcotest.failf "unexpected failure %s" (Guard.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected fuel exhaustion");
  (* a generous budget must agree with the unbudgeted solver *)
  match
    Guard.run (Budget.make ~fuel:1_000_000 ()) (fun () ->
        Simplex.solve ~nvars:2 ~rows ~objective:(obj [ -1; -1 ]) ())
  with
  | Ok (Simplex.Optimal (_, v)) ->
      check bool_c "objective -3" true (Rat.equal v (Rat.of_int (-3)))
  | Ok _ -> Alcotest.fail "expected optimal"
  | Error f -> Alcotest.failf "unexpected failure %s" (Guard.failure_to_string f)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "optimal corner" `Quick test_optimal_corner;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "equalities" `Quick test_equality_rows;
          Alcotest.test_case "free variables" `Quick test_free_variables;
          Alcotest.test_case "degenerate rows" `Quick test_degenerate_redundant;
          Alcotest.test_case "fractional" `Quick test_fractional;
          Alcotest.test_case "rational coefficients" `Quick test_rational_coefficients;
          Alcotest.test_case "zero rows" `Quick test_zero_rows;
          Alcotest.test_case "Beale cycling LP" `Quick test_beale_cycling;
          Alcotest.test_case "budgeted solve" `Quick test_solve_fuel;
          qcheck prop_feasible_by_construction;
          qcheck prop_optimal_is_exact_on_box;
        ] );
    ]
