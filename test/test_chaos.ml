(* Chaos suite: drive the solver entry points under [Guard.run] through
   thousands of seeded interruption points and prove the abort-safety contract:

   - no exception escapes [Guard.run] — every chaos abort surfaces as
     a structured resource failure;
   - the ambient budget is physically restored after every abort;
   - every registered piece of [Runtime_state] passes its validator
     after an abort, and a post-abort rerun (WITHOUT resetting the
     caches) agrees with a fresh-process reference — aborts never
     publish partial state.

   Also home to the [Isolate] process-isolation tests (hard kill of
   non-ticking loops, stack-overflow containment, failure round-trip
   through the result pipe, fork-time cache hygiene) and the
   [Guard.retrying] escalation policy. *)

open Test_util

(* --- repro artifact -------------------------------------------------- *)

let repro_file () =
  match Sys.getenv_opt "CHAOS_REPRO_FILE" with
  | Some p when p <> "" -> p
  | _ -> "chaos-repro.json"

let write_repro ~case ~seed ~rate ~message =
  let path = repro_file () in
  let oc = open_out path in
  Printf.fprintf oc
    "{ \"case\": %S, \"seed\": %d, \"rate\": %g, \"message\": %S }\n" case seed
    rate message;
  close_out oc

let chaos_fail ~case ~seed ~rate fmt =
  Format.kasprintf
    (fun message ->
      write_repro ~case ~seed ~rate ~message;
      Alcotest.failf "%s (seed %d, rate %g): %s — repro written to %s" case
        seed rate message (repro_file ()))
    fmt

(* --- fixed inputs ---------------------------------------------------- *)

let path_training =
  lazy
    (training_of_labeled
       {
         spec = { nodes = 4; edges = [ (0, 1); (1, 2); (2, 3) ]; unary = [ 0 ] };
         mask = 0b0001;
       })

let mixed_training =
  lazy
    (training_of_labeled
       {
         spec =
           {
             nodes = 4;
             edges = [ (0, 1); (1, 2); (2, 0); (0, 3) ];
             unary = [ 1; 3 ];
           };
         mask = 0b1010;
       })

(* all-positive, hence trivially separable: safe for classify *)
let positive_training =
  lazy
    (training_of_labeled
       {
         spec = { nodes = 3; edges = [ (0, 1); (1, 2) ]; unary = [ 0 ] };
         mask = 0b111;
       })

let eval_db =
  lazy (db_of_spec { nodes = 3; edges = [ (0, 1); (1, 2) ]; unary = [ 2 ] })

let show_labeling l = Format.asprintf "%a" Labeling.pp l

let show_witness = function
  | None -> "none"
  | Some (a, b) -> Elem.to_string a ^ "/" ^ Elem.to_string b

let box_lp n =
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
  (rows, objective)

let show_lp = function
  | Simplex.Optimal (_, v) -> "optimal " ^ Rat.to_string v
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded _ -> "unbounded"

(* Fixed instances for the numeric separation tier: one planted
   (separable) and one with random labels (inseparable at this size),
   both deterministic in the seed. *)
let linsep_sat = lazy (Planted.linsep_instance ~seed:0 ~dim:6 ~n:24)
let linsep_mixed = lazy (Planted.linsep_instance ~seed:1 ~dim:4 ~n:20)

(* The optimum with its witness: an abort inside a leaf's numeric tier
   followed by a rerun must give back the same classifier, not only the
   same error count. *)
let show_min_errors = function
  | Some (k, _, c) ->
      Printf.sprintf "%d [%s] >= %s" k
        (String.concat " "
           (Array.to_list (Array.map Rat.to_string c.Linsep.weights)))
        (Rat.to_string c.Linsep.threshold)
  | None -> "none"

let show_nsep a =
  match a.Nsep.verdict with
  | Nsep.Sep _ -> "sep"
  | Nsep.Unsep -> "unsep"
  | Nsep.Unknown r -> "unknown:" ^ r

let linsep_lp examples =
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

let show_fsimplex = function
  | Fsimplex.Feasible _ -> "feasible"
  | Fsimplex.Infeasible _ -> "infeasible"

let cg_input examples =
  let xs =
    Array.of_list
      (List.map (fun e -> Array.map float_of_int e.Linsep.vec) examples)
  in
  let ys =
    Array.of_list
      (List.map
         (fun e ->
           match e.Linsep.label with
           | Labeling.Pos -> 1.0
           | Labeling.Neg -> -1.0)
         examples)
  in
  (xs, ys)

(* All reductions in Cg are fixed-order, so iteration count and
   convergence flag are bit-deterministic and render canonically. *)
let show_cg f = Printf.sprintf "%d:%b" f.Cg.iters f.Cg.converged

(* --- the chaos cases -------------------------------------------------- *)

(* Each case renders its answer to a canonical string so the reference
   and the budgeted run compare with plain [=]. The rendering happens
   outside any failure path, on fully-computed values. *)
type case = {
  c_name : string;
  reference : unit -> string;
  budgeted : Budget.t -> (string, Guard.failure) result;
}

let cases =
  [
    {
      c_name = "cq_sep.separable";
      reference =
        (fun () -> string_of_bool (Cq_sep.separable (Lazy.force mixed_training)));
      budgeted =
        (fun b ->
          Result.map string_of_bool
            (Guard.run b (fun () ->
                 Cq_sep.separable (Lazy.force mixed_training))));
    };
    {
      c_name = "cq_sep.inseparable_witness";
      reference =
        (fun () ->
          show_witness (Cq_sep.inseparable_witness (Lazy.force path_training)));
      budgeted =
        (fun b ->
          Result.map show_witness
            (Guard.run b (fun () ->
                 Cq_sep.inseparable_witness (Lazy.force path_training))));
    };
    {
      c_name = "cq_sep.classify";
      reference =
        (fun () ->
          show_labeling
            (Cq_sep.classify (Lazy.force positive_training) (Lazy.force eval_db)));
      budgeted =
        (fun b ->
          Result.map show_labeling
            (Guard.run b (fun () ->
                 Cq_sep.classify
                   (Lazy.force positive_training)
                   (Lazy.force eval_db))));
    };
    {
      c_name = "cqfeat.separable(ghw1)";
      reference =
        (fun () ->
          string_of_bool
            (Cqfeat.separable (Language.Ghw 1) (Lazy.force mixed_training)));
      budgeted =
        (fun b ->
          Result.map string_of_bool
            (Guard.run b (fun () ->
                 Cqfeat.separable (Language.Ghw 1) (Lazy.force mixed_training))));
    };
    {
      c_name = "atoms_sep.min_errors(m=1)";
      reference =
        (fun () ->
          show_min_errors
            (Atoms_sep.min_errors ~m:1 (Lazy.force mixed_training)));
      budgeted =
        (fun b ->
          Result.map show_min_errors
            (Guard.run b (fun () ->
                 Atoms_sep.min_errors ~m:1 (Lazy.force mixed_training))));
    };
    {
      c_name = "fo_sep.fo_separable";
      reference =
        (fun () ->
          string_of_bool (Fo_sep.fo_separable (Lazy.force mixed_training)));
      budgeted =
        (fun b ->
          Result.map string_of_bool
            (Guard.run b (fun () ->
                 Fo_sep.fo_separable (Lazy.force mixed_training))));
    };
    {
      c_name = "pebble_game.fok_separable(k=2)";
      reference =
        (fun () ->
          string_of_bool
            (Pebble_game.fok_separable ~k:2 (Lazy.force mixed_training)));
      budgeted =
        (fun b ->
          Result.map string_of_bool
            (Guard.run b (fun () ->
                 Pebble_game.fok_separable ~k:2 (Lazy.force mixed_training))));
    };
    {
      c_name = "simplex.solve";
      reference =
        (fun () ->
          let rows, objective = box_lp 4 in
          show_lp (Simplex.solve ~nvars:4 ~rows ~objective ()));
      budgeted =
        (fun b ->
          let rows, objective = box_lp 4 in
          Result.map show_lp
            (Guard.run b (fun () -> Simplex.solve ~nvars:4 ~rows ~objective ())));
    };
    {
      c_name = "nsep.decide(sat)";
      reference = (fun () -> show_nsep (Nsep.decide (Lazy.force linsep_sat)));
      budgeted =
        (fun b ->
          Result.map show_nsep
            (Guard.run b (fun () -> Nsep.decide (Lazy.force linsep_sat))));
    };
    {
      c_name = "nsep.decide(mixed)";
      reference = (fun () -> show_nsep (Nsep.decide (Lazy.force linsep_mixed)));
      budgeted =
        (fun b ->
          Result.map show_nsep
            (Guard.run b (fun () -> Nsep.decide (Lazy.force linsep_mixed))));
    };
    {
      c_name = "fsimplex.feasible";
      reference =
        (fun () ->
          let nvars, rows = linsep_lp (Lazy.force linsep_sat) in
          show_fsimplex (Fsimplex.feasible ~nvars ~rows ()));
      budgeted =
        (fun b ->
          let nvars, rows = linsep_lp (Lazy.force linsep_sat) in
          Result.map show_fsimplex
            (Guard.run b (fun () -> Fsimplex.feasible ~nvars ~rows ())));
    };
    {
      c_name = "cg.fit";
      reference =
        (fun () ->
          let xs, ys = cg_input (Lazy.force linsep_sat) in
          show_cg (Cg.fit ~xs ~ys ()));
      budgeted =
        (fun b ->
          let xs, ys = cg_input (Lazy.force linsep_sat) in
          Result.map show_cg (Guard.run b (fun () -> Cg.fit ~xs ~ys ())));
    };
    {
      c_name = "certify.hyperplane";
      reference =
        (fun () ->
          Certify.verdict_label
            (Certify.hyperplane ~weights:[| 1.0; 1.0; 1.0; 1.0 |]
               (Lazy.force linsep_mixed)));
      budgeted =
        (fun b ->
          Result.map Certify.verdict_label
            (Guard.run b (fun () ->
                 Certify.hyperplane ~weights:[| 1.0; 1.0; 1.0; 1.0 |]
                   (Lazy.force linsep_mixed))));
    };
  ]

(* Sep[*] on Example 6.2, then the statistic of that dimension: an abort
   anywhere in the one combination search (or the realizable-set sweep
   before it) must leave both reproducible. *)
let min_dimension_case =
  let lang = Language.Cq_atoms { m = 1; p = None } in
  let show t =
    match Cqfeat.min_dimension lang t with
    | None -> "none"
    | Some d -> (
        match Cqfeat.generate ~dim:d lang t with
        | Some (stat, _) ->
            Printf.sprintf "%d: %s" d
              (String.concat "; " (List.map Cq.to_string stat))
        | None -> Printf.sprintf "%d: no statistic" d)
  in
  {
    c_name = "cqfeat.min_dimension(cq[1])";
    reference = (fun () -> show (Families.example_62 ()));
    budgeted =
      (fun b -> Guard.run b (fun () -> show (Families.example_62 ())));
  }

(* --- the chaos loop --------------------------------------------------- *)

let seeds_per_case = 250
let rates = [| 0.5; 0.05; 0.005 |]
let total_interruptions = ref 0

(* One case under [seeds_per_case] chaos seeds. Every abort must be a
   structured resource failure, leave the ambient budget physically
   restored and every registered cache valid, and a rerun on the
   still-warm caches must agree with the fresh-process reference. *)
let run_case case () =
  Runtime_state.reset_all ();
  let fresh = case.reference () in
  let ambient = Budget.installed () in
  for seed = 1 to seeds_per_case do
    let rate = rates.(seed mod Array.length rates) in
    Runtime_state.reset_all ();
    let budget = Budget.make ~chaos:(seed, rate) () in
    (match case.budgeted budget with
    | exception e ->
        chaos_fail ~case:case.c_name ~seed ~rate
          "exception escaped the budgeted entry point: %s"
          (Printexc.to_string e)
    | Ok got ->
        if got <> fresh then
          chaos_fail ~case:case.c_name ~seed ~rate
            "completed run disagrees with reference: %s vs %s" got fresh
    | Error f ->
        incr total_interruptions;
        if not (Guard.is_resource_failure f) then
          chaos_fail ~case:case.c_name ~seed ~rate
            "abort surfaced a non-resource failure: %s"
            (Guard.failure_to_string f);
        (match Runtime_state.validate_all () with
        | [] -> ()
        | bad ->
            chaos_fail ~case:case.c_name ~seed ~rate
              "registered state invalid after abort: %s"
              (String.concat ", " bad));
        (* rerun on the possibly-warm caches, WITHOUT resetting *)
        let again = case.reference () in
        if again <> fresh then
          chaos_fail ~case:case.c_name ~seed ~rate
            "post-abort rerun disagrees with fresh reference: %s vs %s" again
            fresh);
    if not (Budget.installed () == ambient) then
      chaos_fail ~case:case.c_name ~seed ~rate
        "ambient budget not restored after run"
  done

(* The acceptance floor: across all cases and seeds the suite must
   actually interrupt computations, not just watch them finish. *)
let test_interruption_floor () =
  if !total_interruptions < 1000 then
    Alcotest.failf
      "chaos coverage too thin: %d interruption points across %d cases × %d \
       seeds (need >= 1000)"
      !total_interruptions (List.length cases) seeds_per_case

let test_chaos_deterministic () =
  let case = List.hd cases in
  let outcome seed =
    Runtime_state.reset_all ();
    match case.budgeted (Budget.make ~chaos:(seed, 0.05) ()) with
    | Ok s -> "ok " ^ s
    | Error f -> "error " ^ Guard.failure_to_string f
  in
  for seed = 1 to 50 do
    check string_c "same seed, same outcome" (outcome seed) (outcome seed)
  done

(* --- Isolate: hard process isolation ---------------------------------- *)

let test_isolate_ok () =
  match Isolate.run ~timeout:30.0 (fun () -> 21 * 2) with
  | Ok 42 -> ()
  | Ok n -> Alcotest.failf "expected Ok 42, got Ok %d" n
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)

let test_isolate_solver_error () =
  match Isolate.run ~timeout:30.0 (fun () -> invalid_arg "nope") with
  | Error (Guard.Solver_error "nope") -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok () -> Alcotest.fail "expected Solver_error"

(* The point of [Isolate]: a worker that never ticks cannot be stopped
   by the cooperative budget, but the SIGKILL deadline still bounds
   it. *)
let test_isolate_kills_non_ticking_loop () =
  let t0 = Unix.gettimeofday () in
  let r =
    Isolate.run ~timeout:0.2 ~grace:0.3 (fun () ->
        while true do
          ()
        done)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r with
  | Error Guard.Timeout -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok () -> Alcotest.fail "expected Timeout");
  check bool_c "killed within deadline + grace + slop" true (elapsed < 5.0)

let test_isolate_contains_stack_overflow () =
  let r =
    Isolate.run ~timeout:30.0 (fun () ->
        let rec deep n = if n <= 0 then 0 else 1 + deep (n - 1) in
        deep 1_000_000_000)
  in
  match r with
  | Error (Guard.Limit_exceeded _) -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok n -> Alcotest.failf "expected stack containment, got Ok %d" n

(* A structured failure produced inside the worker survives the
   marshaling round-trip over the pipe. *)
let test_isolate_failure_round_trip () =
  let budget = Budget.make ~fuel:5 ~timeout:30.0 () in
  match
    Isolate.run ~budget (fun () ->
        for _ = 1 to 100 do
          Budget.tick ~what:"isolate loop" ()
        done)
  with
  | Error (Guard.Fuel_exhausted "isolate loop") -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok () -> Alcotest.fail "expected fuel exhaustion through the pipe"

let test_isolate_validation () =
  (match Isolate.run ~timeout:(-1.0) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative timeout must be rejected");
  match Isolate.run ~timeout:1.0 ~grace:(-0.5) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative grace must be rejected"

(* Fork hygiene: every fresh worker resets the [`Cache] registrations it
   inherited, so a corrupted parent cache cannot reach its result, while
   [`Config] registrations are deliberate state and survive the fork. *)
let probe_cache = ref 0
let probe_knob = ref 1

let () =
  Runtime_state.register ~name:"test_chaos.probe_cache"
    ~validate:(fun () -> !probe_cache >= 0)
    (fun () -> probe_cache := 0);
  Runtime_state.register ~name:"test_chaos.probe_knob" ~kind:`Config
    (fun () -> probe_knob := 1)

let test_isolate_fork_drops_parent_caches () =
  probe_cache := 42;
  (* corrupted parent cache *)
  probe_knob := 7;
  (* deliberate configuration *)
  let finish () =
    probe_cache := 0;
    probe_knob := 1
  in
  Fun.protect ~finally:finish (fun () ->
      match
        Isolate.run ~timeout:30.0 (fun () -> (!probe_cache, !probe_knob))
      with
      | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
      | Ok (cache, knob) ->
          check int_c "corrupted cache reset in the child" 0 cache;
          check int_c "configuration survives the fork" 7 knob;
          check int_c "parent cache untouched by the run" 42 !probe_cache;
          check int_c "parent configuration untouched by the run" 7
            !probe_knob)

(* --- Guard.retrying: escalation policy -------------------------------- *)

let hundred_ticks () =
  for _ = 1 to 100 do
    Budget.tick ~what:"retry loop" ()
  done

let test_retrying_escalates_to_success () =
  (* fuel 8 -> 80 -> 800: the third attempt affords the 100 ticks *)
  let r = Guard.retrying ~attempts:3 ~factor:10.0 Guard.runner in
  match r.Guard.run (Budget.make ~fuel:8 ()) hundred_ticks with
  | Ok () -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)

let test_retrying_exhausts_attempts () =
  let r = Guard.retrying ~attempts:2 ~factor:10.0 Guard.runner in
  match r.Guard.run (Budget.make ~fuel:8 ()) hundred_ticks with
  | Error (Guard.Fuel_exhausted _) -> ()
  | Error f -> Alcotest.failf "unexpected %s" (Guard.failure_to_string f)
  | Ok () -> Alcotest.fail "two attempts (8, 80 fuel) must not suffice"

let test_retrying_never_retries_solver_errors () =
  let calls = ref 0 in
  let r = Guard.retrying ~attempts:5 Guard.runner in
  (match
     r.Guard.run (Budget.make ~fuel:1000 ()) (fun () ->
         incr calls;
         invalid_arg "broken input")
   with
  | Error (Guard.Solver_error _) -> ()
  | _ -> Alcotest.fail "expected Solver_error");
  check int_c "solver errors are not retried" 1 !calls

let test_retrying_timeout_needs_extension () =
  let calls = ref 0 in
  let spin () =
    incr calls;
    while true do
      Budget.tick ()
    done
  in
  let no_ext = Guard.retrying ~attempts:3 Guard.runner in
  (match no_ext.Guard.run (Budget.make ~timeout:0.0 ()) spin with
  | Error Guard.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout");
  check int_c "timeouts not retried without ~extend_deadline" 1 !calls

(* --- the ladder through an isolating runner --------------------------- *)

let test_ladder_through_isolate () =
  let t = Lazy.force mixed_training in
  let r =
    Cq_sep.decide_with_fallback
      ~budget:(Budget.make ~fuel:10_000_000 ~timeout:60.0 ())
      ~runner:(Isolate.runner ()) t
  in
  (match r.Cq_sep.provenance with
  | Cq_sep.Exact -> ()
  | p ->
      Alcotest.failf "expected Exact through Isolate, got %s"
        (Format.asprintf "%a" Cq_sep.pp_provenance p));
  check bool_c "isolated answer matches in-process decision" true
    (r.Cq_sep.answer = Some (Cq_sep.separable t))

(* --- Runtime_state registry ------------------------------------------- *)

let test_runtime_state_registry () =
  let names = Runtime_state.names () in
  List.iter
    (fun n ->
      check bool_c (n ^ " registered") true (List.mem n names))
    [
      "cq_sep.chain_cache"; "cq_decomp.ghw_cache"; "struct_iso.intern";
      "nsep.tier"; "nsep.stats";
    ];
  check bool_c "validate_all clean at rest" true
    (Runtime_state.validate_all () = [])

let test_runtime_state_duplicate_rejected () =
  Runtime_state.register ~name:"test_chaos.dummy" (fun () -> ());
  match Runtime_state.register ~name:"test_chaos.dummy" (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate registration must be rejected"

let () =
  Alcotest.run "chaos"
    [
      ( "seeded interruption",
        List.map
          (fun case -> Alcotest.test_case case.c_name `Slow (run_case case))
          cases
        @ [
            Alcotest.test_case "coverage floor (>= 1000 interruptions)" `Slow
              test_interruption_floor;
            Alcotest.test_case "chaos is deterministic per seed" `Quick
              test_chaos_deterministic;
            Alcotest.test_case min_dimension_case.c_name `Slow
              (run_case min_dimension_case);
          ] );
      ( "isolate",
        [
          Alcotest.test_case "round-trips results" `Quick test_isolate_ok;
          Alcotest.test_case "round-trips failures" `Quick
            test_isolate_failure_round_trip;
          Alcotest.test_case "maps worker exceptions" `Quick
            test_isolate_solver_error;
          Alcotest.test_case "kills a non-ticking loop" `Slow
            test_isolate_kills_non_ticking_loop;
          Alcotest.test_case "contains stack overflow" `Slow
            test_isolate_contains_stack_overflow;
          Alcotest.test_case "rejects bad deadlines" `Quick
            test_isolate_validation;
          Alcotest.test_case "fork drops parent caches, keeps config" `Quick
            test_isolate_fork_drops_parent_caches;
        ] );
      ( "retrying",
        [
          Alcotest.test_case "escalation reaches success" `Quick
            test_retrying_escalates_to_success;
          Alcotest.test_case "bounded attempts" `Quick
            test_retrying_exhausts_attempts;
          Alcotest.test_case "solver errors final" `Quick
            test_retrying_never_retries_solver_errors;
          Alcotest.test_case "timeout retry needs extension" `Quick
            test_retrying_timeout_needs_extension;
        ] );
      ( "integration",
        [
          Alcotest.test_case "ladder through Isolate.runner" `Slow
            test_ladder_through_isolate;
          Alcotest.test_case "registry names" `Quick test_runtime_state_registry;
          Alcotest.test_case "registry duplicates" `Quick
            test_runtime_state_duplicate_rejected;
        ] );
    ]
