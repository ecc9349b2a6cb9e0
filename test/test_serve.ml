(* Serving-tier suite: versioned model store, neighborhood-keyed
   eval cache, admission/degradation ladder, and the publish/serve
   crash-safety story.

   - Model_io hardening: checksummed atomic save, a byte-level
     truncation sweep (every strict prefix of a saved model is
     detected as torn, never parsed into a wrong model), corruption
     detection, legacy v1 compatibility, old-contents preservation
     when a save aborts mid-write;
   - Neighborhood keys: connectivity/radius analysis, invariance
     under element renaming, discrimination between different balls,
     byte-identity with a reference copy of the original key on random
     databases;
   - Model_store: publish/list/rollback, monotone versions across
     reopen and rollback, recovery from a dangling CURRENT and from
     corrupt version files, temp-file cleanup;
   - Serve: cold/warm verdict identity (byte-identical), cross-db
     cache hits through canonical neighborhoods, invalidation on
     publish and rollback, cache survival of Runtime_state
     reset_caches in forked (Isolate) workers, the admission ladder
     (overload sheds cold work with structured rejects while pure
     cache-hit batches keep serving), the eval breaker, and the
     weakly held cache registry;
   - the neighborhood-key memo: keyed by the physical database, not
     by [db_key]; kept across a publish; dense-ball fallback keys;
     reset, and its bound by the database's domain;
   - publish/serve SIGKILL sweep: a child publishes 30 versions
     (interleaved with served classifications) and SIGKILLs itself at
     the k-th atomic-write stage crossing, for every k until a run
     completes untouched (240 interruption points); after every crash
     the parent proves no version file is torn or mixed-version, the
     recovered current is the old or the new version (never partial),
     and every acknowledged classification recomputes identically
     from the durable model of its version;
   - live daemon: publish/classify/models/rollback round trip over
     the socket, warm-path identity, and sustained >= 4x overload via
     cqload: excess traffic sheds with structured rejects, accepted
     p99 stays bounded, zero errors. *)

open Test_util

let x = sym "x"
let y = sym "y"

let tmp_dir tag =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cqserve-%d-%s" (Unix.getpid ()) tag)
  in
  (match Unix.mkdir d 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let tmp_path suffix =
  let p = Filename.temp_file "cqserve" suffix in
  Sys.remove p;
  p

(* Feature q_R(x) :- R(x): one connected atom, radius 1. *)
let feature_r = Cq.make ~free:x [ Fact.make_l "R" [ x ] ]

(* weight w, threshold 0: entity positive iff R(entity). *)
let model_weight w =
  Model_io.make [ feature_r ]
    { Linsep.weights = [| Rat.of_int w |]; threshold = Rat.of_int 0 }

let m_pos = model_weight 1
let m_neg = model_weight (-1) (* flipped verdicts: same features *)

(* Entities a, b, c; R holds of a and c. *)
let eval_db =
  List.fold_left
    (fun db e -> Db.add_entity e db)
    (Db.of_list
       [ ("R", [ sym "a" ]); ("R", [ sym "c" ]); ("E", [ sym "a"; sym "b" ]) ])
    [ sym "a"; sym "b"; sym "c" ]

let abc = [ sym "a"; sym "b"; sym "c" ]

let serve_cfg =
  {
    Serve.default_config with
    Serve.eval_rate = 1e9;
    eval_burst = 1e9;
    eval_timeout = None;
    eval_fuel = None;
  }

let classify_ok sv ~db_key ~db entities =
  match Serve.classify sv ~db_key ~db entities with
  | Serve.Served s -> s
  | Serve.Shed r -> Alcotest.failf "unexpected shed: %s" (Jobq.reject_to_string r)
  | Serve.Failed f ->
      Alcotest.failf "unexpected failure: %s" (Guard.failure_to_string f)

let signs s =
  String.concat ""
    (List.map
       (fun (_, l) -> match l with Labeling.Pos -> "+" | Labeling.Neg -> "-")
       s.Serve.sv_results)

(* --- Model_io hardening ----------------------------------------------- *)

let test_model_roundtrip () =
  let path = tmp_path ".model" in
  Model_io.save path m_pos;
  let m = Model_io.load path in
  check string_c "checksummed roundtrip" (Model_io.to_string m_pos)
    (Model_io.to_string m);
  (* legacy v1 (headerless) files still load, unverified *)
  let legacy = Model_io.of_string (Model_io.to_string m_pos) in
  check string_c "legacy v1 loads" (Model_io.to_string m_pos)
    (Model_io.to_string legacy);
  Sys.remove path

let test_model_truncation_sweep () =
  let s = Model_io.to_string_checksummed m_pos in
  let n = String.length s in
  for cut = 0 to n - 1 do
    match Model_io.of_string (String.sub s 0 cut) with
    | _ -> Alcotest.failf "prefix of %d/%d bytes parsed as a model" cut n
    | exception Model_io.Parse_error _ -> ()
  done;
  check bool_c "full string parses" true
    (Model_io.of_string s |> fun m ->
     Model_io.to_string m = Model_io.to_string m_pos)

let test_model_corruption_detected () =
  let s = Model_io.to_string_checksummed m_pos in
  (* flip one body byte per position; every flip must be rejected *)
  let body_start = String.index s '\n' + 1 in
  let rejected = ref 0 in
  String.iteri
    (fun i c ->
      if i >= body_start && c <> '\n' then begin
        let b = Bytes.of_string s in
        Bytes.set b i (if c = 'z' then 'q' else 'z');
        match Model_io.of_string (Bytes.to_string b) with
        | _ -> Alcotest.failf "corrupt byte %d parsed as a model" i
        | exception Model_io.Parse_error _ -> incr rejected
      end)
    s;
  check bool_c "some bytes were flipped" true (!rejected > 50)

let test_atomic_save_preserves_old () =
  let path = tmp_path ".model" in
  Model_io.save path m_pos;
  (* abort the next save before its rename: the file must keep the
     old contents and the temp file must be cleaned up *)
  let exception Abort in
  Model_io.set_save_hook
    (Some (function Model_io.Temp_synced -> raise Abort | _ -> ()));
  (match Model_io.save path m_neg with
  | () -> Alcotest.fail "aborted save returned"
  | exception Abort -> ());
  Model_io.set_save_hook None;
  let m = Model_io.load path in
  check string_c "old contents preserved" (Model_io.to_string m_pos)
    (Model_io.to_string m);
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      if
        String.length f > String.length base
        && String.sub f 0 (String.length base) = base
      then Alcotest.failf "leftover temp file %s" f)
    (Sys.readdir dir);
  Sys.remove path

(* --- Neighborhood ------------------------------------------------------ *)

let test_neighborhood_radius () =
  check bool_c "R(x) connected" true (Neighborhood.connected feature_r);
  let disconnected = Cq.make ~free:x [ Fact.make_l "R" [ x ]; Fact.make_l "S" [ y ] ] in
  check bool_c "R(x),S(y) disconnected" false
    (Neighborhood.connected disconnected);
  (match Neighborhood.model_radius [ feature_r ] with
  | Some r -> check int_c "radius of R(x)" 1 r
  | None -> Alcotest.fail "connected model refused");
  (match Neighborhood.model_radius [ feature_r; disconnected ] with
  | None -> ()
  | Some _ -> Alcotest.fail "disconnected model accepted");
  let two_hop =
    Cq.make ~free:x
      [ Fact.make_l "E" [ x; y ]; Fact.make_l "E" [ y; sym "z" ] ]
  in
  match Neighborhood.model_radius [ feature_r; two_hop ] with
  | Some r -> check int_c "radius is the max atom count" 2 r
  | None -> Alcotest.fail "connected two-hop model refused"

let test_neighborhood_key_invariance () =
  let path names =
    match names with
    | [ a; b; c ] ->
        List.fold_left
          (fun db e -> Db.add_entity e db)
          (Db.of_list [ ("E", [ sym a; sym b ]); ("E", [ sym b; sym c ]) ])
          [ sym a ]
    | _ -> assert false
  in
  let d1 = path [ "a"; "b"; "c" ] and d2 = path [ "u"; "v"; "w" ] in
  check string_c "renamed isomorphic balls share a key"
    (Neighborhood.key ~radius:2 d1 (sym "a"))
    (Neighborhood.key ~radius:2 d2 (sym "u"));
  let shorter =
    List.fold_left
      (fun db e -> Db.add_entity e db)
      (Db.of_list [ ("E", [ sym "a"; sym "b" ]) ])
      [ sym "a" ]
  in
  check bool_c "different radius-2 balls get different keys" false
    (Neighborhood.key ~radius:2 d1 (sym "a")
    = Neighborhood.key ~radius:2 shorter (sym "a"))

(* The key as first written: the ball walk, then a sort whose
   comparator rebuilds both ranks on every comparison. The library
   ranks each fact once; its keys must stay byte-identical. *)
let reference_key ~radius db e =
  let dist = ref (Elem.Map.singleton e 0) in
  let facts = ref Fact.Map.empty in
  let frontier = ref [ e ] in
  let d = ref 0 in
  while !frontier <> [] && !d < radius do
    let layer = List.sort Elem.compare !frontier in
    frontier := [];
    List.iter
      (fun el ->
        List.iter
          (fun f ->
            if not (Fact.Map.mem f !facts) then facts := Fact.Map.add f !d !facts;
            Array.iter
              (fun arg ->
                if not (Elem.Map.mem arg !dist) then begin
                  dist := Elem.Map.add arg (!d + 1) !dist;
                  frontier := arg :: !frontier
                end)
              (Fact.args f))
          (Db.facts_with_elem el db))
      layer;
    incr d
  done;
  let rank f =
    let args = Fact.args f in
    let profile =
      Array.to_list
        (Array.map
           (fun a ->
             match Elem.Map.find_opt a !dist with Some d -> d | None -> max_int)
           args)
    in
    let min_d = List.fold_left min max_int (max_int :: profile) in
    (min_d, Fact.rel f, Array.length args, profile)
  in
  let ordered =
    List.sort
      (fun (f1, _) (f2, _) ->
        let c = compare (rank f1) (rank f2) in
        if c <> 0 then c else Fact.compare f1 f2)
      (Fact.Map.bindings !facts)
  in
  let ids = ref (Elem.Map.singleton e 0) in
  let next = ref 1 in
  let id_of el =
    match Elem.Map.find_opt el !ids with
    | Some i -> i
    | None ->
        let i = !next in
        ids := Elem.Map.add el i !ids;
        incr next;
        i
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "r%d|" radius);
  List.iter
    (fun (f, _) ->
      Buffer.add_string buf (Fact.rel f);
      Buffer.add_char buf '(';
      Array.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int (id_of a)))
        (Fact.args f);
      Buffer.add_string buf ");")
    ordered;
  Buffer.contents buf

let prop_key_matches_reference =
  QCheck.Test.make ~name:"key equals the reference key" ~count:200
    QCheck.(
      quad (int_range 0 100_000) (int_range 1 12) (int_range 0 10)
        (int_range 1 3))
    (fun (seed, domain_size, facts_per_rel, radius) ->
      let db =
        Gen_db.random_db ~seed
          ~schema:[ ("E", 2); ("U", 1); ("T", 3) ]
          ~domain_size ~facts_per_rel ()
      in
      Elem.Set.for_all
        (fun e ->
          String.equal
            (Neighborhood.key ~radius db e)
            (reference_key ~radius db e))
        (Db.domain db))

(* --- Model_store ------------------------------------------------------- *)

let test_store_publish_rollback () =
  let dir = tmp_dir "store" in
  rm_rf dir;
  let st = Model_store.open_ ~dir in
  check bool_c "fresh store empty" true (Model_store.current_version st = None);
  let v1 = Model_store.publish st m_pos in
  let v2 = Model_store.publish st m_neg in
  check int_c "v1" 1 v1;
  check int_c "v2" 2 v2;
  check bool_c "current v2" true (Model_store.current_version st = Some 2);
  (match Model_store.rollback st with
  | Ok v -> check int_c "rollback to v1" 1 v
  | Error e -> Alcotest.fail e);
  (* monotone: the next publish does not reuse 2 *)
  let v3 = Model_store.publish st m_pos in
  check int_c "post-rollback publish is v3" 3 v3;
  (* reopen: same view *)
  let st2 = Model_store.open_ ~dir in
  check bool_c "reopen current" true (Model_store.current_version st2 = Some 3);
  check bool_c "reopen list" true (Model_store.list st2 = [ 1; 2; 3 ]);
  check string_c "reopen load v2" (Model_io.to_string m_neg)
    (Model_io.to_string (Model_store.load st2 2));
  (match Model_store.rollback st2 with
  | Ok v -> check int_c "rollback skips nothing valid" 2 v
  | Error e -> Alcotest.fail e);
  rm_rf dir

let test_store_recovery () =
  let dir = tmp_dir "recover" in
  rm_rf dir;
  let st = Model_store.open_ ~dir in
  ignore (Model_store.publish st m_pos);
  ignore (Model_store.publish st m_neg);
  (* corrupt v2 on disk: open must fall back to v1 even though
     CURRENT still names v2 *)
  let v2_file = Filename.concat dir "v000002.model" in
  let oc = open_out_bin v2_file in
  output_string oc "# cqfeat model v2 crc32 00000000 len 3\nxyz";
  close_out oc;
  (* and drop crash residue that open_ must clean *)
  let tmp = Filename.concat dir "v000003.model.tmp.999.1" in
  let oc = open_out_bin tmp in
  output_string oc "partial";
  close_out oc;
  let st2 = Model_store.open_ ~dir in
  check bool_c "corrupt current falls back" true
    (Model_store.current_version st2 = Some 1);
  check bool_c "corrupt version delisted" true (Model_store.list st2 = [ 1 ]);
  check bool_c "tmp residue removed" false (Sys.file_exists tmp);
  (* the counter still advances past the corrupt file: no reuse *)
  let v = Model_store.publish st2 m_pos in
  check int_c "no version reuse after corruption" 3 v;
  rm_rf dir

(* --- Serve: cache identity, invalidation, forked workers --------------- *)

let test_serve_warm_identity () =
  let dir = tmp_dir "warm" in
  rm_rf dir;
  let sv = Serve.create ~config:serve_cfg (Model_store.open_ ~dir) in
  (match Serve.classify sv ~db_key:"k" ~db:eval_db abc with
  | Serve.Shed (Jobq.Invalid _) -> ()
  | _ -> Alcotest.fail "classify without a model must shed invalid");
  ignore (Serve.publish sv m_pos);
  let cold = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "cold path misses" 3 cold.Serve.sv_cold;
  check string_c "verdicts" "+-+" (signs cold);
  let warm = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "warm path hits" 3 warm.Serve.sv_hits;
  check bool_c "hit-path verdicts byte-identical to cold-path" true
    (cold.Serve.sv_results = warm.Serve.sv_results);
  (* cross-database hits: a renamed copy shares every neighborhood *)
  let renamed =
    Db.map_elems
      (fun e -> Elem.sym ("r_" ^ Elem.to_string e))
      eval_db
  in
  let warm2 =
    classify_ok sv ~db_key:"other" ~db:renamed
      (List.map (fun e -> Elem.sym ("r_" ^ Elem.to_string e)) abc)
  in
  check int_c "cross-db neighborhoods hit" 3 warm2.Serve.sv_hits;
  check string_c "cross-db verdicts" "+-+" (signs warm2);
  rm_rf dir

let test_serve_version_flip () =
  let dir = tmp_dir "flip" in
  rm_rf dir;
  let sv = Serve.create ~config:serve_cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  let r1 = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check string_c "v1 verdicts" "+-+" (signs r1);
  ignore (Serve.publish sv m_neg);
  let r2 = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "flip invalidates: all cold again" 3 r2.Serve.sv_cold;
  check string_c "v2 verdicts flipped" "-+-" (signs r2);
  (match Serve.rollback sv with
  | Ok v -> check int_c "rollback" 1 v
  | Error e -> Alcotest.fail e);
  let r3 = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "rollback invalidates too" 3 r3.Serve.sv_cold;
  check string_c "v1 verdicts again" "+-+" (signs r3);
  rm_rf dir

let test_serve_forked_worker_reset () =
  let dir = tmp_dir "fork" in
  rm_rf dir;
  let sv = Serve.create ~config:serve_cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  let parent = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  (* Isolate workers run Runtime_state.reset_caches on fork; the
     cache must come back empty there and recompute identically. *)
  match
    Isolate.run (fun () ->
        let r = classify_ok sv ~db_key:"k" ~db:eval_db abc in
        (r.Serve.sv_hits, r.Serve.sv_results))
  with
  | Error f -> Alcotest.failf "worker: %s" (Guard.failure_to_string f)
  | Ok (hits, results) ->
      check int_c "worker cache was reset (no stale hits)" 0 hits;
      check bool_c "worker recomputes identical verdicts" true
        (results = parent.Serve.sv_results);
      rm_rf dir

(* A mixed batch: [c] is warmed first, so [c] hits (twice) while [b]
   (twice) and [a] are evaluated cold in one feature-major pass; the
   verdicts come back in input order and equal the batch
   [Model_io.apply]. *)
let test_serve_mixed_batch_order () =
  let dir = tmp_dir "mixed" in
  rm_rf dir;
  let feature_e = Cq.make ~free:x [ Fact.make_l "E" [ x; y ] ] in
  let model =
    Model_io.make [ feature_r; feature_e ]
      {
        Linsep.weights = [| Rat.of_int 2; Rat.of_int (-1) |];
        threshold = Rat.of_int 0;
      }
  in
  let sv = Serve.create ~config:serve_cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv model);
  ignore (classify_ok sv ~db_key:"k" ~db:eval_db [ sym "c" ]);
  let batch = [ sym "b"; sym "c"; sym "a"; sym "b"; sym "c" ] in
  let r = classify_ok sv ~db_key:"k" ~db:eval_db batch in
  check int_c "hits" 2 r.Serve.sv_hits;
  check int_c "cold, repeats counted" 3 r.Serve.sv_cold;
  let applied = Model_io.apply model eval_db in
  check (Alcotest.list string_c) "input order"
    (List.map Elem.to_string batch)
    (List.map (fun (e, _) -> Elem.to_string e) r.Serve.sv_results);
  check bool_c "labels equal Model_io.apply" true
    (List.for_all
       (fun (e, lab) -> lab = Labeling.get e applied)
       r.Serve.sv_results);
  rm_rf dir

(* --- Serve: the neighborhood-key memo ------------------------------------ *)

let labels_match model db (s : Serve.served) =
  let applied = Model_io.apply model db in
  List.for_all (fun (e, lab) -> lab = Labeling.get e applied) s.Serve.sv_results

(* [eval_db] with R moved from a to b: same entities, other balls. *)
let eval_db' =
  List.fold_left
    (fun db e -> Db.add_entity e db)
    (Db.of_list
       [ ("R", [ sym "b" ]); ("R", [ sym "c" ]); ("E", [ sym "a"; sym "b" ]) ])
    abc

(* The memo is keyed by the physical database, so two databases served
   under one [db_key] never share keys. *)
let test_memo_same_db_key () =
  let dir = tmp_dir "memo-dbkey" in
  rm_rf dir;
  let sv = Serve.create ~config:serve_cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  for round = 1 to 2 do
    List.iter
      (fun (db, want) ->
        let s = classify_ok sv ~db_key:"same" ~db abc in
        check string_c (Printf.sprintf "round %d verdicts" round) want (signs s);
        check bool_c "labels equal Model_io.apply" true (labels_match m_pos db s))
      [ (eval_db, "+-+"); (eval_db', "-++") ]
  done;
  rm_rf dir

(* Keys are model-independent apart from the radius: after a
   republish the memoized keys serve a cold batch exactly as a fresh
   [Serve.t] does. *)
let test_memo_survives_publish () =
  let dir = tmp_dir "memo-publish" in
  let fresh_dir = tmp_dir "memo-fresh" in
  rm_rf dir;
  rm_rf fresh_dir;
  let feature_e = Cq.make ~free:x [ Fact.make_l "E" [ x; y ] ] in
  let model =
    Model_io.make [ feature_r; feature_e ]
      {
        Linsep.weights = [| Rat.of_int 2; Rat.of_int (-1) |];
        threshold = Rat.of_int 0;
      }
  in
  let sv = Serve.create ~config:serve_cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  ignore (classify_ok sv ~db_key:"k" ~db:eval_db abc);
  ignore (Serve.publish sv model);
  let again = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "republish empties the verdict cache" 3 again.Serve.sv_cold;
  let fresh = Serve.create ~config:serve_cfg (Model_store.open_ ~dir:fresh_dir) in
  ignore (Serve.publish fresh model);
  let expected = classify_ok fresh ~db_key:"k" ~db:eval_db abc in
  check bool_c "labels equal a fresh Serve.t" true
    (again.Serve.sv_results = expected.Serve.sv_results);
  check bool_c "labels equal Model_io.apply" true (labels_match model eval_db again);
  rm_rf dir;
  rm_rf fresh_dir

(* A walk that runs out of key fuel is memoized as dense and rendered
   as a database-identity key of the request's [db_key]. *)
let test_memo_dense_fallback () =
  let dir = tmp_dir "memo-dense" in
  rm_rf dir;
  let sv =
    Serve.create
      ~config:{ serve_cfg with Serve.key_fuel = 1 }
      (Model_store.open_ ~dir)
  in
  ignore (Serve.publish sv m_pos);
  let first = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "first call is cold" 3 first.Serve.sv_cold;
  check bool_c "first call labels" true (labels_match m_pos eval_db first);
  let second = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "second call is all hits" 3 second.Serve.sv_hits;
  check bool_c "second call labels" true (labels_match m_pos eval_db second);
  (* identity keys are not shared across databases, unlike balls *)
  let renamed = Db.map_elems (fun e -> Elem.sym ("r_" ^ Elem.to_string e)) eval_db in
  let other =
    classify_ok sv ~db_key:"other" ~db:renamed
      (List.map (fun e -> Elem.sym ("r_" ^ Elem.to_string e)) abc)
  in
  check int_c "fallback keys miss on a renamed copy" 3 other.Serve.sv_cold;
  check string_c "renamed copy verdicts" "+-+" (signs other);
  rm_rf dir

(* [reset_caches] empties the memo; classification stays correct and
   every registered invariant holds, also after naming an element
   outside the database, which the memo must not retain. *)
let test_memo_reset () =
  let dir = tmp_dir "memo-reset" in
  rm_rf dir;
  let sv = Serve.create ~config:serve_cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  ignore (classify_ok sv ~db_key:"k" ~db:eval_db abc);
  Runtime_state.reset_caches ();
  let s = classify_ok sv ~db_key:"k" ~db:eval_db abc in
  check int_c "verdict cache was reset too" 3 s.Serve.sv_cold;
  check bool_c "labels after reset" true (labels_match m_pos eval_db s);
  let ghosts = List.init 5 (fun i -> sym (Printf.sprintf "ghost%d" i)) in
  let g = classify_ok sv ~db_key:"k" ~db:eval_db (abc @ ghosts) in
  check string_c "ghost verdicts" "+-+-----" (signs g);
  check (Alcotest.list string_c) "validate_all" [] (Runtime_state.validate_all ());
  rm_rf dir

(* The cache registry holds caches weakly: a dropped cache is
   collected. *)
let[@inline never] make_and_drop w =
  Weak.set w 0 (Some (Eval_cache.create ~capacity:4))

let test_eval_cache_collectable () =
  let w = Weak.create 1 in
  make_and_drop w;
  Gc.full_major ();
  check bool_c "dropped cache collected" false (Weak.check w 0);
  check (Alcotest.list string_c) "validate_all" [] (Runtime_state.validate_all ())

(* --- Serve: admission ladder and breaker -------------------------------- *)

let with_fake_clock f =
  let t = ref 1000.0 in
  Budget.Clock.set_source (Some (fun () -> !t));
  Fun.protect
    ~finally:(fun () -> Budget.Clock.set_source None)
    (fun () -> f t)

let test_serve_overload_ladder () =
  with_fake_clock @@ fun t ->
  let dir = tmp_dir "ladder" in
  rm_rf dir;
  let cfg =
    {
      serve_cfg with
      Serve.eval_rate = 1.0;
      eval_burst = 2.0;
    }
  in
  let sv = Serve.create ~config:cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  (* 3 cold > 2 tokens: shed with a structured retry-after *)
  (match Serve.classify sv ~db_key:"k" ~db:eval_db abc with
  | Serve.Shed (Jobq.Overloaded { retry_after }) ->
      check bool_c "retry_after = deficit/rate" true
        (Float.abs (retry_after -. 1.0) < 1e-9)
  | _ -> Alcotest.fail "3 cold over 2 tokens must shed overload");
  (* 2 cold fit exactly *)
  let r = classify_ok sv ~db_key:"k" ~db:eval_db [ sym "a"; sym "b" ] in
  check string_c "admitted batch" "+-" (signs r);
  (* bucket now empty: fresh cold work sheds ... *)
  (match Serve.classify sv ~db_key:"k" ~db:eval_db [ sym "c" ] with
  | Serve.Shed (Jobq.Overloaded _) -> ()
  | _ -> Alcotest.fail "empty bucket must shed cold work");
  (* ... while pure cache hits keep serving (degraded-but-hot) *)
  let hot = classify_ok sv ~db_key:"k" ~db:eval_db [ sym "a"; sym "b" ] in
  check int_c "hot path served from cache under overload" 2 hot.Serve.sv_hits;
  (* time refills the bucket *)
  t := !t +. 1.0;
  let late = classify_ok sv ~db_key:"k" ~db:eval_db [ sym "c" ] in
  check string_c "refilled token admits the cold entity" "+" (signs late);
  let st = Serve.stats sv in
  check int_c "sheds counted" 2 st.Serve.st_shed_overload;
  rm_rf dir

let test_serve_breaker () =
  with_fake_clock @@ fun t ->
  let dir = tmp_dir "breaker" in
  rm_rf dir;
  let cfg =
    {
      serve_cfg with
      Serve.eval_fuel = Some 1;
      (* every cold eval exhausts *)
      breaker_threshold = 2;
      breaker_cooldown = 50.0;
    }
  in
  let sv = Serve.create ~config:cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  let expect_failed e =
    match Serve.classify sv ~db_key:"k" ~db:eval_db [ e ] with
    | Serve.Failed f ->
        check bool_c "resource failure" true (Guard.is_resource_failure f)
    | _ -> Alcotest.fail "starved eval must fail"
  in
  expect_failed (sym "a");
  expect_failed (sym "b");
  (match Serve.classify sv ~db_key:"k" ~db:eval_db [ sym "c" ] with
  | Serve.Shed (Jobq.Breaker_open { job_class; retry_after }) ->
      check string_c "breaker class" "eval" job_class;
      check bool_c "retry hint" true (retry_after > 0.0)
  | _ -> Alcotest.fail "two resource failures must open the breaker");
  (* past the cool-down a half-open probe is admitted again *)
  t := !t +. 60.0;
  (match Serve.classify sv ~db_key:"k" ~db:eval_db [ sym "c" ] with
  | Serve.Failed _ -> ()
  | _ -> Alcotest.fail "half-open probe should run (and fail again)");
  let st = Serve.stats sv in
  check int_c "breaker sheds counted" 1 st.Serve.st_shed_breaker;
  check int_c "eval failures counted" 3 st.Serve.st_eval_failures;
  rm_rf dir

(* A multi-entity cold batch (with a repeat) that runs out of fuel
   fails as a whole, caches nothing and counts toward the breaker. *)
let test_serve_cold_batch_exhausts () =
  with_fake_clock @@ fun _ ->
  let dir = tmp_dir "exhaust" in
  rm_rf dir;
  let cfg =
    {
      serve_cfg with
      Serve.eval_fuel = Some 1;
      breaker_threshold = 1;
      breaker_cooldown = 50.0;
    }
  in
  let sv = Serve.create ~config:cfg (Model_store.open_ ~dir) in
  ignore (Serve.publish sv m_pos);
  (match Serve.classify sv ~db_key:"k" ~db:eval_db (abc @ [ sym "a" ]) with
  | Serve.Failed f ->
      check bool_c "resource failure" true (Guard.is_resource_failure f)
  | _ -> Alcotest.fail "a starved cold batch must fail");
  let st = Serve.stats sv in
  check int_c "failure counted" 1 st.Serve.st_eval_failures;
  check int_c "nothing evaluated" 0 st.Serve.st_cold_evals;
  (match Serve.classify sv ~db_key:"k" ~db:eval_db [ sym "a" ] with
  | Serve.Shed (Jobq.Breaker_open _) -> ()
  | _ -> Alcotest.fail "the failed batch must open the breaker");
  rm_rf dir

(* --- publish/serve SIGKILL sweep ---------------------------------------- *)

let install_save_kill ~at =
  let crossings = ref 0 in
  Model_io.set_save_hook
    (Some
       (fun _stage ->
         incr crossings;
         if !crossings = at then Unix.kill (Unix.getpid ()) Sys.sigkill))

let sweep_publishes = 30

(* Version i is published with weight i: file contents identify the
   version they were written for, so a mixed or torn file cannot
   masquerade as any valid version. *)
let sweep_model i = model_weight i

let publish_chaos_child ~dir ~kill_at ~report_fd =
  install_save_kill ~at:kill_at;
  let say line =
    let b = Bytes.of_string (line ^ "\n") in
    ignore (Unix.write report_fd b 0 (Bytes.length b))
  in
  let store = Model_store.open_ ~dir in
  let sv = Serve.create ~config:serve_cfg store in
  for i = 1 to sweep_publishes do
    let v = Serve.publish sv (sweep_model i) in
    say (Printf.sprintf "P %d %d" v i);
    match Serve.classify sv ~db_key:"sweep" ~db:eval_db [ sym "a"; sym "b" ] with
    | Serve.Served s ->
        say (Printf.sprintf "C %d %s" s.Serve.sv_version (signs s))
    | Serve.Shed _ | Serve.Failed _ -> ()
  done;
  say "CLEAN"

let parse_sweep_reports output =
  List.fold_left
    (fun (acks, classifies, clean) line ->
      match String.split_on_char ' ' line with
      | [ "CLEAN" ] -> (acks, classifies, true)
      | [ "P"; v; i ] ->
          ((int_of_string v, int_of_string i) :: acks, classifies, clean)
      | [ "C"; v; s ] -> (acks, (int_of_string v, s) :: classifies, clean)
      | _ -> (acks, classifies, clean))
    ([], [], false)
    (String.split_on_char '\n' output)

let slurp_fd fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let publish_chaos_iteration ~kill_at =
  let dir = tmp_dir (Printf.sprintf "sweep-%d" kill_at) in
  rm_rf dir;
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      (match publish_chaos_child ~dir ~kill_at ~report_fd:w with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 9)
  | pid ->
      Unix.close w;
      let output = slurp_fd r in
      Unix.close r;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 | Unix.WSIGNALED _ -> ()
      | Unix.WEXITED c ->
          Alcotest.failf "sweep child (kill_at %d) exited %d" kill_at c
      | Unix.WSTOPPED _ -> Alcotest.failf "sweep child stopped");
      let acks, classifies, clean = parse_sweep_reports output in
      (* acked publish i got version i: fresh store, monotone *)
      List.iter
        (fun (v, i) ->
          if v <> i then
            Alcotest.failf "kill_at %d: publish %d acked as v%d" kill_at i v)
        acks;
      let last_acked = List.fold_left (fun m (v, _) -> max m v) 0 acks in
      (* 1. no observer ever sees a torn or mixed-version model: every
         version file on disk — including one from the in-flight
         publish — must load (checksum intact) and carry exactly the
         contents published under its number *)
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".model" then begin
            let v = int_of_string (String.sub name 1 6) in
            match Model_io.load (Filename.concat dir name) with
            | m ->
                if Model_io.to_string m <> Model_io.to_string (sweep_model v)
                then
                  Alcotest.failf "kill_at %d: %s holds mixed-version contents"
                    kill_at name
            | exception Model_io.Parse_error why ->
                Alcotest.failf "kill_at %d: torn model %s: %s" kill_at name why
          end)
        (Sys.readdir dir);
      (* 2. recovery lands on the old or the new version, never partial *)
      let store = Model_store.open_ ~dir in
      (match Model_store.current_version store with
      | None ->
          if last_acked > 0 then
            Alcotest.failf "kill_at %d: acked v%d lost entirely" kill_at
              last_acked
      | Some v ->
          if v < last_acked || v > last_acked + 1 then
            Alcotest.failf
              "kill_at %d: recovered v%d not in {acked %d, in-flight %d}"
              kill_at v last_acked (last_acked + 1));
      (* 3. acked classifications recompute identically from the
         durable model of their version *)
      let sv = Serve.create ~config:serve_cfg store in
      List.iter
        (fun (v, s) ->
          let m =
            try Model_store.load store v
            with Invalid_argument _ ->
              Alcotest.failf
                "kill_at %d: classification acked at v%d but v%d is gone"
                kill_at v v
          in
          let lab = Model_io.apply m eval_db in
          let expect =
            String.concat ""
              (List.map
                 (fun e ->
                   match Labeling.get e lab with
                   | Labeling.Pos -> "+"
                   | Labeling.Neg -> "-")
                 [ sym "a"; sym "b" ])
          in
          if s <> expect then
            Alcotest.failf "kill_at %d: acked verdicts %S at v%d, now %S"
              kill_at s v expect)
        classifies;
      ignore sv;
      rm_rf dir;
      clean

let test_publish_crash_sweep () =
  (* 30 publishes x 8 atomic-write stage crossings (4 for the model
     file, 4 for CURRENT) = 240 interruption points, then one clean
     run proving the sweep covered the schedule. *)
  let rec sweep kill_at =
    if publish_chaos_iteration ~kill_at then kill_at - 1
    else if kill_at > 1000 then
      Alcotest.fail "publish sweep did not terminate"
    else sweep (kill_at + 1)
  in
  let covered = sweep 1 in
  check bool_c
    (Printf.sprintf "publish sweep covered %d points (>= 200)" covered)
    true (covered >= 200)

(* --- live daemon: serving protocol and overload ------------------------- *)

let daemon_exe = "../bin/cqserved.exe"
let cqload_exe = "../bin/cqload.exe"

let sock_path tag =
  Printf.sprintf "/tmp/cqserve-%d-%s.sock" (Unix.getpid ()) tag

let daemon_request sock line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | exception Unix.Unix_error _ -> None
      | () ->
          let payload = Bytes.of_string (line ^ "\n") in
          let rec send off =
            if off < Bytes.length payload then
              match Unix.write fd payload off (Bytes.length payload - off) with
              | n -> send (off + n)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
          in
          (match send 0 with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          let buf = Buffer.create 128 in
          let chunk = Bytes.create 256 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec recv () =
            if Unix.gettimeofday () > deadline then None
            else
              match Unix.select [ fd ] [] [] 0.25 with
              | [], _, _ -> recv ()
              | _ -> begin
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> Some (Buffer.contents buf)
                  | n -> begin
                      match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
                      | Some i ->
                          Buffer.add_subbytes buf chunk 0 i;
                          Some (Buffer.contents buf)
                      | None ->
                          Buffer.add_subbytes buf chunk 0 n;
                          recv ()
                    end
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
                  | exception Unix.Unix_error _ -> None
                end
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
          in
          recv ())

let require = function
  | Some r -> r
  | None -> Alcotest.fail "daemon unreachable"

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let start_serving_daemon ~sock ~wal ~models ~extra =
  let argv =
    Array.of_list
      ([ "cqserved"; "-s"; sock; "-w"; wal; "--models"; models ] @ extra)
  in
  let pid =
    Unix.create_process daemon_exe argv Unix.stdin Unix.stdout Unix.stderr
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_up () =
    match daemon_request sock "PING" with
    | Some "OK pong" -> ()
    | _ when Unix.gettimeofday () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        Alcotest.fail "daemon did not come up"
    | _ ->
        Unix.sleepf 0.05;
        wait_up ()
  in
  wait_up ();
  pid

let kill_daemon pid sock =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  try Sys.remove sock with Sys_error _ -> ()

let find_sub s needle =
  let ls = String.length s and ln = String.length needle in
  let rec go i =
    if i + ln > ls then None
    else if String.sub s i ln = needle then Some i
    else go (i + 1)
  in
  go 0

let contains s needle = find_sub s needle <> None

let int_after s needle =
  match find_sub s needle with
  | None -> Alcotest.failf "no %S in %S" needle s
  | Some i ->
      let start = i + String.length needle in
      let stop = ref start in
      while
        !stop < String.length s
        && (match s.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      int_of_string (String.sub s start (!stop - start))

(* "key": N with a flat scanner — cqload --json emits one flat object *)
let json_int json key = int_after json (Printf.sprintf "\"%s\": " key)

let test_daemon_serving_roundtrip () =
  let sock = sock_path "serve" in
  let wal = tmp_path ".wal" in
  let models = tmp_dir "daemon-models" in
  rm_rf models;
  let db_file = tmp_path ".db" in
  write_file db_file "R(a)\nR(c)\nE(a,b)\n?a\n?b\n?c\n";
  let model_file = tmp_path ".model" in
  Model_io.save model_file m_pos;
  let pid = start_serving_daemon ~sock ~wal ~models ~extra:[] in
  Fun.protect
    ~finally:(fun () ->
      kill_daemon pid sock;
      rm_rf models;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ wal; db_file; model_file ])
    (fun () ->
      check string_c "no model yet"
        "REJECT invalid invalid job: no model published"
        (require (daemon_request sock ("CLASSIFY db=" ^ db_file)));
      check string_c "publish" "OK v1"
        (require (daemon_request sock ("PUBLISH model=" ^ model_file)));
      let cold = require (daemon_request sock ("CLASSIFY db=" ^ db_file)) in
      let warm = require (daemon_request sock ("CLASSIFY db=" ^ db_file)) in
      let verdicts reply =
        List.filter
          (fun t -> String.length t > 0 && (t.[0] = '+' || t.[0] = '-'))
          (String.split_on_char ' ' reply)
      in
      check bool_c "cold reply shape" true
        (String.length cold > 3 && String.sub cold 0 5 = "OK v1");
      check bool_c "warm verdicts identical to cold" true
        (verdicts cold = verdicts warm);
      check bool_c "warm reply is all hits" true
        (contains warm "hits=3 cold=0");
      check string_c "models" "OK current=v1 versions=v1"
        (require (daemon_request sock "MODELS"));
      check string_c "publish again" "OK v2"
        (require (daemon_request sock ("PUBLISH model=" ^ model_file)));
      check string_c "rollback" "OK v1"
        (require (daemon_request sock "ROLLBACK"));
      check string_c "models after rollback" "OK current=v1 versions=v1,v2"
        (require (daemon_request sock "MODELS"));
      (* restart: published models survive (store is on disk) *)
      kill_daemon pid sock;
      let pid2 = start_serving_daemon ~sock ~wal ~models ~extra:[] in
      Fun.protect
        ~finally:(fun () -> kill_daemon pid2 sock)
        (fun () ->
          check string_c "models survive restart"
            "OK current=v1 versions=v1,v2"
            (require (daemon_request sock "MODELS"))))

let test_daemon_overload_sheds () =
  let sock = sock_path "load" in
  let wal = tmp_path ".wal" in
  let models = tmp_dir "load-models" in
  rm_rf models;
  let db_file = tmp_path ".db" in
  write_file db_file "R(a)\nR(c)\nE(a,b)\n?a\n?b\n?c\n";
  let model_file = tmp_path ".model" in
  Model_io.save model_file m_pos;
  (* cache-size 1 keeps most lookups cold, so the token bucket (20/s)
     is the binding constraint while cqload offers orders of
     magnitude more — sustained >= 4x overload by construction. *)
  let pid =
    start_serving_daemon ~sock ~wal ~models
      ~extra:
        [ "--eval-rate"; "20"; "--eval-burst"; "20"; "--cache-size"; "1" ]
  in
  Fun.protect
    ~finally:(fun () ->
      kill_daemon pid sock;
      rm_rf models;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ wal; db_file; model_file ])
    (fun () ->
      check string_c "publish" "OK v1"
        (require (daemon_request sock ("PUBLISH model=" ^ model_file)));
      let out_r, out_w = Unix.pipe () in
      let pid_load =
        Unix.create_process cqload_exe
          [|
            "cqload"; "-s"; sock; "--db"; db_file; "--workers"; "4";
            "--duration"; "1s"; "--json";
          |]
          Unix.stdin out_w Unix.stderr
      in
      Unix.close out_w;
      let json = slurp_fd out_r in
      Unix.close out_r;
      (match Unix.waitpid [] pid_load with
      | _, Unix.WEXITED 0 -> ()
      | _, st ->
          Alcotest.failf "cqload did not succeed: %s"
            (match st with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
      let accepted = json_int json "accepted" in
      let rejected = json_int json "rejected" in
      let errors = json_int json "errors" in
      let p99 = json_int json "p99_ns" in
      check int_c "no protocol errors under overload" 0 errors;
      check bool_c "some requests were served" true (accepted > 0);
      check bool_c
        (Printf.sprintf "excess traffic shed (%d rejected vs %d accepted)"
           rejected accepted)
        true
        (rejected > 3 * accepted);
      check bool_c
        (Printf.sprintf "accepted p99 bounded (%.1fms)"
           (float_of_int p99 /. 1e6))
        true
        (p99 < 2_000_000_000);
      (* the rejects were structured overload rejects, visible in STATS *)
      let stats = require (daemon_request sock "STATS") in
      check bool_c "daemon counted overload sheds" true
        (int_after stats "eval_shed_overload=" > 0))

(* --- suite ------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "model_io",
        [
          Alcotest.test_case "checksummed roundtrip + legacy" `Quick
            test_model_roundtrip;
          Alcotest.test_case "truncation sweep" `Quick
            test_model_truncation_sweep;
          Alcotest.test_case "corruption detected" `Quick
            test_model_corruption_detected;
          Alcotest.test_case "aborted save preserves old contents" `Quick
            test_atomic_save_preserves_old;
        ] );
      ( "neighborhood",
        [
          Alcotest.test_case "connectivity and radius" `Quick
            test_neighborhood_radius;
          Alcotest.test_case "key invariance" `Quick
            test_neighborhood_key_invariance;
          qcheck prop_key_matches_reference;
        ] );
      ( "model_store",
        [
          Alcotest.test_case "publish/rollback/monotone" `Quick
            test_store_publish_rollback;
          Alcotest.test_case "recovery from corruption" `Quick
            test_store_recovery;
        ] );
      ( "serve",
        [
          Alcotest.test_case "warm identity + cross-db hits" `Quick
            test_serve_warm_identity;
          Alcotest.test_case "version flip invalidates" `Quick
            test_serve_version_flip;
          Alcotest.test_case "forked worker reset" `Quick
            test_serve_forked_worker_reset;
          Alcotest.test_case "overload ladder" `Quick
            test_serve_overload_ladder;
          Alcotest.test_case "eval breaker" `Quick test_serve_breaker;
          Alcotest.test_case "mixed hit/cold batch order" `Quick
            test_serve_mixed_batch_order;
          Alcotest.test_case "cold batch exhausts fuel" `Quick
            test_serve_cold_batch_exhausts;
          Alcotest.test_case "eval cache collectable" `Quick
            test_eval_cache_collectable;
        ] );
      ( "key_memo",
        [
          Alcotest.test_case "same db_key, different contents" `Quick
            test_memo_same_db_key;
          Alcotest.test_case "survives publish" `Quick
            test_memo_survives_publish;
          Alcotest.test_case "dense fallback" `Quick test_memo_dense_fallback;
          Alcotest.test_case "reset" `Quick test_memo_reset;
        ] );
      ( "crash",
        [
          Alcotest.test_case "publish/serve SIGKILL sweep" `Quick
            test_publish_crash_sweep;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "serving protocol roundtrip" `Quick
            test_daemon_serving_roundtrip;
          Alcotest.test_case "overload sheds, accepted p99 bounded" `Quick
            test_daemon_overload_sheds;
        ] );
    ]
