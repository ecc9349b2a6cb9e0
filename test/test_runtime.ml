(* Tests for the budgeted runtime (Budget + Guard), solver entry points
   run under Guard.run, and the graceful-degradation ladder.

   The fault-injection properties run real solvers under tiny budgets
   with randomized exhaustion points: whatever the budget, an entry
   point under Guard.run must either agree with its unbudgeted run or
   fail with a clean structured resource failure — never hang, never
   leak an exception. *)

open Test_util

(* --- Budget and Guard basics ---------------------------------------- *)

let test_budget_validation () =
  (match Budget.make ~fuel:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fuel 0 must be rejected");
  (match Budget.make ~timeout:(-1.0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative timeout must be rejected");
  check bool_c "unlimited" true (Budget.is_unlimited Budget.unlimited);
  check bool_c "limited" false (Budget.is_unlimited (Budget.make ~fuel:5 ()))

let test_guard_ok () =
  match Guard.run (Budget.make ~fuel:100 ()) (fun () -> 41 + 1) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "expected Ok 42"

let test_guard_fuel () =
  match
    Guard.run
      (Budget.make ~fuel:3 ())
      (fun () ->
        for _ = 1 to 10 do
          Budget.tick ~what:"test loop" ()
        done)
  with
  | Error (Guard.Fuel_exhausted "test loop") -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok () -> Alcotest.fail "expected fuel exhaustion"

let test_guard_timeout () =
  (* an already-expired deadline must trip at the very first tick *)
  match
    Guard.run
      (Budget.make ~timeout:0.0 ())
      (fun () ->
        while true do
          Budget.tick ()
        done)
  with
  | Error Guard.Timeout -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok () -> Alcotest.fail "expected timeout"

let test_guard_maps_exceptions () =
  (match Guard.run Budget.unlimited (fun () -> invalid_arg "boom") with
  | Error (Guard.Solver_error "boom") -> ()
  | _ -> Alcotest.fail "Invalid_argument must map to Solver_error");
  match Guard.run Budget.unlimited (fun () -> raise Not_found) with
  | Error (Guard.Solver_error _) -> ()
  | _ -> Alcotest.fail "Not_found must map to Solver_error"

let test_guard_restores_ambient () =
  check bool_c "ambient starts unlimited" true
    (Budget.is_unlimited (Budget.installed ()));
  let outer = Budget.make ~fuel:1000 () in
  let seen_inner = ref false in
  (match
     Guard.run outer (fun () ->
         let inner = Budget.make ~fuel:5 () in
         (match Guard.run inner (fun () -> Budget.installed () == inner) with
         | Ok b -> seen_inner := b
         | Error f ->
             Alcotest.failf "inner run failed: %s" (Guard.failure_to_string f));
         Budget.installed () == outer)
   with
  | Ok true -> ()
  | _ -> Alcotest.fail "outer budget must be restored after a nested run");
  check bool_c "inner budget installed during nested run" true !seen_inner;
  check bool_c "ambient unlimited after" true
    (Budget.is_unlimited (Budget.installed ()))

(* Nested Guard.run must restore the outer ambient budget whatever the
   inner outcome — success, exhaustion, or a stack overflow unwinding
   through the handler. Assertions run OUTSIDE the guarded closures
   (an Alcotest failure raised inside would be swallowed into
   Solver_error). *)
let test_guard_reentrant_after_failure () =
  let outer = Budget.make ~fuel:100_000 () in
  let result =
    Guard.run outer (fun () ->
        let after_exhaustion =
          match
            Guard.run
              (Budget.make ~fuel:2 ())
              (fun () ->
                while true do
                  Budget.tick ()
                done)
          with
          | Error (Guard.Fuel_exhausted _) -> Budget.installed () == outer
          | _ -> false
        in
        let after_overflow =
          match
            Guard.run Budget.unlimited (fun () ->
                let rec deep n = if n <= 0 then 0 else 1 + deep (n - 1) in
                deep 1_000_000_000)
          with
          | Error (Guard.Limit_exceeded _) -> Budget.installed () == outer
          | _ -> false
        in
        (after_exhaustion, after_overflow))
  in
  (match result with
  | Ok (after_exhaustion, after_overflow) ->
      check bool_c "outer restored after inner exhaustion" true
        after_exhaustion;
      check bool_c "outer restored after inner stack overflow" true
        after_overflow
  | Error f -> Alcotest.failf "outer run failed: %s" (Guard.failure_to_string f));
  check bool_c "ambient unlimited after nested failures" true
    (Budget.is_unlimited (Budget.installed ()))

(* --- the clock seam --------------------------------------------------- *)

let with_fake_clock t f =
  Budget.Clock.set_source (Some (fun () -> !t));
  Fun.protect
    ~finally:(fun () -> Budget.Clock.set_source None)
    (fun () -> f t)

(* [replenish] only consults the clock once per credit window, so the
   loops below run well past one window to guarantee a clock check. *)
let many_ticks () =
  for _ = 1 to 5_000 do
    Budget.tick ~what:"fake clock loop" ()
  done

let test_fake_clock_deadline () =
  with_fake_clock (ref 1_000.0) @@ fun t ->
  let b = Budget.make ~timeout:10.0 () in
  (match Guard.run b many_ticks with
  | Ok () -> ()
  | Error f ->
      Alcotest.failf "must not trip before the fake deadline: %s"
        (Guard.failure_to_string f));
  t := 1_020.0;
  match Guard.run (Budget.refresh b) many_ticks with
  | Error Guard.Timeout -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok () -> Alcotest.fail "advancing the fake clock past the deadline must trip"

let test_fake_clock_backwards_jump_clamped () =
  with_fake_clock (ref 2_000.0) @@ fun t ->
  check bool_c "clock at fake time" true (Budget.Clock.now () >= 2_000.0);
  let b = Budget.make ~timeout:10.0 () in
  t := 500.0;
  check bool_c "backwards jump clamped to the high-water mark" true
    (Budget.Clock.now () >= 2_000.0);
  check bool_c "backwards jump does not extend the deadline" true
    (Budget.remaining_time b <= Some 10.0)

(* --- chaos basics ----------------------------------------------------- *)

let ticks_until_chaos budget =
  let n = ref 0 in
  match
    Guard.run budget (fun () ->
        for _ = 1 to 100_000 do
          Budget.tick ~what:"chaos probe" ();
          incr n
        done)
  with
  | Ok () -> None
  | Error _ -> Some !n

let test_chaos_rate_one () =
  match ticks_until_chaos (Budget.make ~chaos:(7, 1.0) ()) with
  | Some 0 -> ()
  | Some n -> Alcotest.failf "rate 1.0 must trip at the first tick, not %d" n
  | None -> Alcotest.fail "rate 1.0 must trip"

let test_chaos_rate_zero () =
  match ticks_until_chaos (Budget.make ~chaos:(7, 0.0) ()) with
  | None -> ()
  | Some n -> Alcotest.failf "rate 0.0 must never trip (tripped after %d)" n

let test_chaos_deterministic_per_seed () =
  let at seed = ticks_until_chaos (Budget.make ~chaos:(seed, 0.01) ()) in
  check bool_c "same seed, same interruption point" true (at 42 = at 42);
  check bool_c "chaos injects as a resource failure" true
    (match
       Guard.run
         (Budget.make ~chaos:(3, 1.0) ())
         (fun () -> Budget.tick ())
     with
    | Error f -> Guard.is_resource_failure f
    | Ok () -> false)

let test_chaos_validation () =
  (match Budget.make ~chaos:(1, -0.1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative chaos rate must be rejected");
  match Budget.make ~chaos:(1, 1.5) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chaos rate > 1 must be rejected"

let test_budget_refresh () =
  let b = Budget.make ~fuel:10 () in
  let burn () =
    match
      Guard.run b (fun () ->
          while true do
            Budget.tick ()
          done)
    with
    | Error (Guard.Fuel_exhausted _) -> ()
    | _ -> Alcotest.fail "expected fuel exhaustion"
  in
  burn ();
  check bool_c "spent" true (Budget.remaining_fuel b = Some 0);
  check bool_c "refilled" true
    (Budget.remaining_fuel (Budget.refresh b) = Some 10)

(* --- fault injection: entry points under Guard.run ------------------- *)

let langs =
  [
    Language.Cq_all;
    Language.Cq_atoms { m = 1; p = None };
    Language.Ghw 1;
    Language.Fo;
    Language.Fo_k 2;
  ]

(* Under [Guard.run] with a random tiny budget, [separable] either
   agrees with the unbudgeted decision or reports a resource failure. *)
let prop_separable_agrees =
  QCheck.Test.make ~count:50
    ~name:"separable: Ok agrees with unbudgeted, Error is structured"
    (QCheck.pair (labeled_spec_arb ~max_nodes:4 ~max_edges:5)
       (QCheck.int_range 1 200))
    (fun (ls, fuel) ->
      let t = training_of_labeled ls in
      List.for_all
        (fun lang ->
          let expected = Cqfeat.separable lang t in
          match
            Guard.run (Budget.make ~fuel ()) (fun () -> Cqfeat.separable lang t)
          with
          | Ok b -> b = expected
          | Error f -> Guard.is_resource_failure f)
        langs)

let prop_simplex_structured =
  QCheck.Test.make ~count:100
    ~name:"Simplex.solve under tiny fuel: agree or structured failure"
    (QCheck.pair (QCheck.int_range 1 60) (QCheck.int_range 1 6))
    (fun (fuel, n) ->
      (* box LP: minimize -sum x_i subject to 0 <= x_i <= i+1 *)
      let unit i = Array.init n (fun j -> if i = j then Rat.one else Rat.zero) in
      let rows =
        List.concat
          (List.init n (fun i ->
               [
                 { Simplex.coeffs = unit i; op = Simplex.Ge; rhs = Rat.zero };
                 {
                   Simplex.coeffs = unit i;
                   op = Simplex.Le;
                   rhs = Rat.of_int (i + 1);
                 };
               ]))
      in
      let objective = Array.make n Rat.minus_one in
      let expected = Simplex.solve ~nvars:n ~rows ~objective () in
      match
        Guard.run (Budget.make ~fuel ()) (fun () ->
            Simplex.solve ~nvars:n ~rows ~objective ())
      with
      | Ok (Simplex.Optimal (_, v)) -> begin
          match expected with
          | Simplex.Optimal (_, v') -> Rat.equal v v'
          | _ -> false
        end
      | Ok Simplex.Infeasible -> expected = Simplex.Infeasible
      | Ok (Simplex.Unbounded _) -> begin
          match expected with Simplex.Unbounded _ -> true | _ -> false
        end
      | Error f -> Guard.is_resource_failure f)

let prop_preorder_structured =
  QCheck.Test.make ~count:40
    ~name:"Cover_game.preorder under tiny fuel"
    (QCheck.pair (spec_arb ~max_nodes:4 ~max_edges:5)
       (QCheck.int_range 1 100))
    (fun (spec, fuel) ->
      let db = db_of_spec spec in
      let ents = Db.entities db in
      match
        Guard.run (Budget.make ~fuel ()) (fun () ->
            Cover_game.preorder ~k:1 db ents)
      with
      | Ok m -> m = Cover_game.preorder ~k:1 db ents
      | Error f -> Guard.is_resource_failure f)

(* Algorithm 1 under a random small fuel: either the unbudgeted
   labeling, or a structured failure. A training database that is not
   GHW(1)-separable makes [classify] refuse, budgeted or not. *)
let prop_ghw_classify_structured =
  QCheck.Test.make ~count:40 ~name:"Ghw_sep.classify under tiny fuel"
    (QCheck.triple
       (labeled_spec_arb ~max_nodes:4 ~max_edges:5)
       (spec_arb ~max_nodes:4 ~max_edges:5)
       (QCheck.int_range 1 3000))
    (fun (ls, es, fuel) ->
      let t = training_of_labeled ls and eval_db = db_of_spec es in
      let expected =
        match Ghw_sep.classify ~k:1 t eval_db with
        | l -> Some l
        | exception Invalid_argument _ -> None
      in
      match
        ( expected,
          Guard.run (Budget.make ~fuel ()) (fun () ->
              Ghw_sep.classify ~k:1 t eval_db) )
      with
      | Some l, Ok l' -> Labeling.equal l l'
      | None, Ok _ -> false
      | Some _, Error f -> Guard.is_resource_failure f
      | None, Error _ -> true)

(* --- tight fuel interrupts the hot loops ----------------------------- *)

(* Sweep fuel 1..cap: fuel [f] admits [f - 1] ticks and raises at the
   f-th, so the collected [~what] labels enumerate the tick sites the
   computation passes through, in order. Membership of a loop's label
   proves that loop is interruptible at tick granularity. The sweep
   stops at the first fuel value that lets the run complete. *)
let exhaustion_labels ?(cap = 2048) run =
  let rec go fuel acc =
    if fuel > cap then acc
    else
      match Guard.run (Budget.make ~fuel ()) run with
      | Ok _ -> acc
      | Error (Guard.Fuel_exhausted what) -> go (fuel + 1) (what :: acc)
      | Error _ -> go (fuel + 1) acc
  in
  List.sort_uniq compare (go 1 [])

(* A single question builds a context (arc consistency over every
   source fact) and then branches on a smallest domain: both loops
   must be interruptible. A directed cycle is arc consistent with every
   domain full, so the search has to branch. *)
let test_tight_fuel_hom_search () =
  let db =
    db_of_spec
      { nodes = 4; edges = [ (0, 1); (1, 2); (2, 3); (3, 0) ]; unary = [] }
  in
  let labels =
    exhaustion_labels (fun () -> ignore (Hom.exists ~src:db ~dst:db ()))
  in
  check bool_c "the arc-consistency loop is interruptible" true
    (List.mem "hom: arc consistency" labels);
  check bool_c "the branching search is interruptible" true
    (List.mem "hom: consistent search" labels)

(* The pinned queries of a preorder build one pin index per entity and
   run the shared kill fixpoint, unpinned in the context and then once
   per query: both loops must be interruptible. *)
let test_tight_fuel_cover_game () =
  let db =
    (* a triangle with a tail: enough non-trivial pins to reach a
       compatible dependent position *)
    db_of_spec
      { nodes = 4; edges = [ (0, 1); (1, 2); (2, 0); (2, 3) ]; unary = [] }
  in
  let labels =
    exhaustion_labels (fun () ->
        ignore (Cover_game.preorder ~k:1 db (Db.entities db)))
  in
  List.iter
    (fun what ->
      check bool_c (Printf.sprintf "%S is interruptible" what) true
        (List.mem what labels))
    [
      "cover game: pin index";
      "cover game: pin filter";
      "cover game: fixpoint";
    ]

(* The hom preorder runs its searches on one arc-consistent context:
   the propagation queue and the search must be interruptible. A path
   with edges both ways leaves a pinned neighbor two values, so the
   search branches. *)
let test_tight_fuel_hom_preorder () =
  let db =
    db_of_spec
      { nodes = 4;
        edges = [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 3); (3, 2) ];
        unary = [] }
  in
  let labels =
    exhaustion_labels (fun () ->
        ignore (Cq_sep.hom_preorder db (Db.entities db)))
  in
  List.iter
    (fun what ->
      check bool_c (Printf.sprintf "%S is interruptible" what) true
        (List.mem what labels))
    [ "hom: arc consistency"; "hom: consistent search"; "cq sep: hom preorder" ]

(* A query whose existential variables form a triangle: not α-acyclic,
   few variables, so [Eval_engine.plan] must run the width search and
   the decomposition machinery behind it. *)
let cyclic_query () =
  let x = sym "x" and y = sym "y" and z = sym "z" and w = sym "w" in
  Cq.make ~free:x
    [
      Fact.make_l "E" [ x; y ];
      Fact.make_l "E" [ y; z ];
      Fact.make_l "E" [ z; w ];
      Fact.make_l "E" [ w; y ];
    ]

let test_tight_fuel_plan_and_decomp () =
  let labels =
    exhaustion_labels (fun () -> ignore (Eval_engine.plan (cyclic_query ())))
  in
  check bool_c "the try_width recursion in Eval_engine.plan is interruptible"
    true
    (List.mem "plan: decomposition width search" labels);
  check bool_c "the recursive search in Cq_decomp is interruptible" true
    (List.exists (String.starts_with ~prefix:"cq decomp:") labels)

(* --- the graceful-degradation ladder -------------------------------- *)

let sample_training () =
  training_of_labeled
    {
      spec = { nodes = 4; edges = [ (0, 1); (1, 2); (2, 3) ]; unary = [ 0 ] };
      mask = 0b0001;
    }

let test_ladder_exact () =
  let t = sample_training () in
  let r =
    Cq_sep.decide_with_fallback ~budget:(Budget.make ~fuel:10_000_000 ()) t
  in
  (match r.Cq_sep.provenance with
  | Cq_sep.Exact -> ()
  | p ->
      Alcotest.failf "expected an exact answer, got %s"
        (Format.asprintf "%a" Cq_sep.pp_provenance p));
  check bool_c "answer matches unbudgeted" true
    (r.Cq_sep.answer = Some (Cq_sep.separable t))

let test_ladder_no_degrade () =
  let t = sample_training () in
  let r =
    Cq_sep.decide_with_fallback ~degrade:false
      ~budget:(Budget.make ~fuel:1 ())
      t
  in
  match (r.Cq_sep.answer, r.Cq_sep.provenance) with
  | None, Cq_sep.Gave_up (Guard.Fuel_exhausted _) -> ()
  | _ -> Alcotest.fail "expected Gave_up with fuel exhaustion"

let test_ladder_expired_deadline () =
  (* an already-expired deadline exhausts every rung: the ladder gives
     up with Timeout instead of hanging *)
  let t = sample_training () in
  let r =
    Cq_sep.decide_with_fallback ~budget:(Budget.make ~timeout:0.0 ()) t
  in
  match (r.Cq_sep.answer, r.Cq_sep.provenance) with
  | None, Cq_sep.Gave_up Guard.Timeout -> ()
  | _ -> Alcotest.fail "expected Gave_up Timeout"

(* Whatever the (random) exhaustion point, a ladder answer must be
   provenance-coherent: Exact answers match the unbudgeted decision, a
   positive degraded/approximate answer certifies CQ-separability
   (CQ[m] ⊆ CQ), the approximate verdict is slack = 0, and a give-up
   carries a resource failure. *)
let prop_ladder_sound =
  QCheck.Test.make ~count:50 ~name:"ladder: provenance-coherent and sound"
    (QCheck.pair (labeled_spec_arb ~max_nodes:4 ~max_edges:5)
       (QCheck.int_range 1 300))
    (fun (ls, fuel) ->
      let t = training_of_labeled ls in
      let r =
        Cq_sep.decide_with_fallback ~budget:(Budget.make ~fuel ()) t
      in
      let exact = Cq_sep.separable t in
      match (r.Cq_sep.answer, r.Cq_sep.provenance) with
      | Some b, Cq_sep.Exact -> b = exact
      | Some true, (Cq_sep.Degraded _ | Cq_sep.Approximate _) -> exact
      | Some false, Cq_sep.Approximate slack -> not (Rat.is_zero slack)
      | Some false, Cq_sep.Degraded _ -> true
      | None, Cq_sep.Gave_up f -> Guard.is_resource_failure f
      | _ -> false)

let () =
  Alcotest.run "runtime"
    [
      ( "budget",
        [
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "refresh" `Quick test_budget_refresh;
        ] );
      ( "clock",
        [
          Alcotest.test_case "fake clock drives the deadline" `Quick
            test_fake_clock_deadline;
          Alcotest.test_case "backwards jumps are clamped" `Quick
            test_fake_clock_backwards_jump_clamped;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "rate 1.0 trips immediately" `Quick
            test_chaos_rate_one;
          Alcotest.test_case "rate 0.0 never trips" `Quick
            test_chaos_rate_zero;
          Alcotest.test_case "deterministic per seed" `Quick
            test_chaos_deterministic_per_seed;
          Alcotest.test_case "rate validation" `Quick test_chaos_validation;
        ] );
      ( "guard",
        [
          Alcotest.test_case "ok" `Quick test_guard_ok;
          Alcotest.test_case "fuel" `Quick test_guard_fuel;
          Alcotest.test_case "timeout" `Quick test_guard_timeout;
          Alcotest.test_case "exception mapping" `Quick
            test_guard_maps_exceptions;
          Alcotest.test_case "ambient nesting" `Quick
            test_guard_restores_ambient;
          Alcotest.test_case "ambient restored after nested failures" `Quick
            test_guard_reentrant_after_failure;
        ] );
      ( "fault injection",
        [
          qcheck prop_separable_agrees;
          qcheck prop_simplex_structured;
          qcheck prop_preorder_structured;
          qcheck prop_ghw_classify_structured;
          Alcotest.test_case "tight fuel: hom search" `Quick
            test_tight_fuel_hom_search;
          Alcotest.test_case "tight fuel: planning and decomposition" `Quick
            test_tight_fuel_plan_and_decomp;
          Alcotest.test_case "tight fuel: cover-game index and fixpoint"
            `Quick test_tight_fuel_cover_game;
          Alcotest.test_case "tight fuel: arc-consistent hom preorder" `Quick
            test_tight_fuel_hom_preorder;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "exact within budget" `Quick test_ladder_exact;
          Alcotest.test_case "no-degrade gives up" `Quick
            test_ladder_no_degrade;
          Alcotest.test_case "expired deadline" `Quick
            test_ladder_expired_deadline;
          qcheck prop_ladder_sound;
        ] );
    ]
