(* The paper's pipeline, run in-process on seeded inputs:

     parse training text -> enumerate CQ[m] features -> evaluate the
     indicator columns -> dedupe -> decide separability (Nsep, with the
     ApxSep minimum on refutation) -> serialize and publish the model
     -> classify held-out entities cold, then warm

   and, for the structural workload, the deciders that materialize no
   features (the GHW(1) cover game, the CQ hom preorder, Algorithm 1).

   An untraced iteration trains through the library entry point
   ([Atoms_sep.pruned_features]). A traced iteration runs the same
   pipeline decomposed into the public functions of each layer, with a
   span around each call; per-layer figures come only from traced
   iterations. Every iteration, traced or not, is checked by an
   untimed oracle against the library's reference entry points. *)

let cap = 8 (* ApxSep search cap; refuted instances need 3 errors *)
let acc_instances = 40 (* heldout_acc averages exactly this many *)

type run = {
  mutable setup : float list;
  mutable train : float list;
  mutable classify : float list;
  mutable classified : int;
  mutable serving_s : float;
  mutable acc : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable iter_ops : float;
  mutable traced_wall : float;
  mutable traced_iters : int;
  mutable untraced_wall : float;
  mutable untraced_iters : int;
  mutable reference : float list;
  mutable last_reference : float;
}

let new_run () =
  {
    reference = [];
    last_reference = 0.;
    setup = [];
    train = [];
    classify = [];
    classified = 0;
    serving_s = 0.;
    acc = [];
    attempted = 0;
    failed = 0;
    mismatches = 0;
    iter_ops = 0.;
    traced_wall = 0.;
    traced_iters = 0;
    untraced_wall = 0.;
    untraced_iters = 0;
  }

let now = Unix.gettimeofday

let mismatch r fmt =
  Printf.ksprintf
    (fun msg ->
      r.mismatches <- r.mismatches + 1;
      prerr_endline ("pipebench: mismatch: " ^ msg))
    fmt

exception Op_failed of string

(* Every library call that can run long gets a fresh, generous budget:
   a regression shows up as a counted failure, never as a hang. *)
let guarded f =
  match Guard.run (Budget.make ~timeout:60. ()) f with
  | Ok v -> v
  | Error e -> raise (Op_failed (Guard.failure_to_string e))

(* ---- host speed ------------------------------------------------------ *)

(* Shared hosts drift in speed by tens of percent, over seconds and over
   minutes, which moves every timing taken meanwhile alike. A fixed
   kernel that calls no library code (map and hash-table inserts, a
   sort: the same kind of allocating, pointer-chasing work as the
   pipeline) is timed between operations, at least every
   [reference_every] seconds. Each timed operation is scaled by
   [reference_nominal] over the median of the last [reference_window]
   kernel times, so it reads as on a host where the kernel takes
   [reference_nominal] seconds: the drift cancels, a change to the
   library does not. *)
module Int_map = Map.Make (Int)

let reference_nominal = 8e-4
let reference_every = 0.02
let reference_window = 9

let reference_kernel () =
  let x = ref 12345 and m = ref Int_map.empty and h = Hashtbl.create 64 in
  for i = 1 to 1500 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := Int_map.add (!x land 0xffff) i !m;
    Hashtbl.replace h (string_of_int (!x land 0x3ff)) i
  done;
  List.length (List.sort compare (Int_map.fold (fun k _ acc -> k :: acc) !m []))
  + Hashtbl.length h

let time_reference r =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_kernel ()) : int);
  r.last_reference <- now ();
  r.reference <- (r.last_reference -. t0) :: r.reference

(* The scale for a time measured now. *)
let local_scale r =
  reference_nominal /. Trace.median (List.filteri (fun i _ -> i < reference_window) r.reference)

(* The scale over the whole run, for the per-layer figures. *)
let run_scale r = reference_nominal /. Trace.median r.reference

(* One attempted operation, timed into the iteration's op wall; its
   time is returned scaled. *)
let op r f =
  r.attempted <- r.attempted + 1;
  let t0 = now () in
  match f () with
  | v ->
      let dt = now () -. t0 in
      r.iter_ops <- r.iter_ops +. dt;
      Some (v, local_scale r *. dt)
  | exception e ->
      r.iter_ops <- r.iter_ops +. (now () -. t0);
      r.failed <- r.failed + 1;
      prerr_endline ("pipebench: failed: " ^ Printexc.to_string e);
      None

let untraced f =
  let saved = !Trace.enabled in
  Trace.enabled := false;
  Fun.protect ~finally:(fun () -> Trace.enabled := saved) f

(* ---- layer calls ---------------------------------------------------- *)

let parse text =
  Trace.span "textfmt" (fun () ->
      Textfmt.training_of_document (Textfmt.parse_string text))

let plan_kind = function
  | Eval_engine.Acyclic _ -> "acyclic"
  | Eval_engine.Decomposed _ -> "decomposed"
  | Eval_engine.Hom_search -> "hom"

(* [Atoms_sep.pruned_features], one layer at a time. *)
let features_decomposed ~m (t : Labeling.training) =
  let features = Trace.span "cq_enum" (fun () -> Atoms_sep.all_features ~m t.db) in
  let entities = Db.entities t.db in
  let columns =
    List.map
      (fun q ->
        let plan = Trace.span "eval_engine.plan" (fun () -> Eval_engine.plan q) in
        Trace.count ("eval_engine.plan_" ^ plan_kind plan) 1.;
        Trace.span "eval_engine.columns" (fun () ->
            let selected = Elem.Set.of_list (Eval_engine.eval_with_plan q plan t.db) in
            List.map (fun e -> Elem.Set.mem e selected) entities))
      features
  in
  let stat =
    Trace.span "atoms_sep.dedupe" (fun () ->
        let seen = Hashtbl.create 64 in
        List.filter_map
          (fun (q, column) ->
            if Hashtbl.mem seen column then None
            else begin
              Hashtbl.add seen column ();
              Some q
            end)
          (List.combine features columns))
  in
  let n = float_of_int (List.length features) in
  Trace.count "cq_enum.features" n;
  Trace.count "eval_engine.columns" n;
  Trace.count "atoms_sep.kept" (float_of_int (List.length stat));
  stat

let count_nsep (b : Nsep.stats) (a : Nsep.stats) =
  List.iter
    (fun (name, x, y) -> Trace.count ("nsep." ^ name) (float_of_int (y - x)))
    [
      ("decided", b.decided, a.decided);
      ("certified_cg", b.certified_cg, a.certified_cg);
      ("certified_simplex", b.certified_simplex, a.certified_simplex);
      ("certified_precheck", b.certified_precheck, a.certified_precheck);
      ("exact_solves", b.exact_solves, a.exact_solves);
      ("escalations", b.escalations, a.escalations);
    ]

(* The LP verdict; on refutation, the ApxSep minimum-error classifier. *)
let fit examples =
  let before = Nsep.stats () in
  let answer = Trace.span "nsep" (fun () -> Nsep.decide examples) in
  if !Trace.enabled then count_nsep before (Nsep.stats ());
  match answer.Nsep.verdict with
  | Nsep.Sep c -> (answer, c)
  | Nsep.Unsep | Nsep.Unknown _ -> (
      match
        Trace.span "linsep.min_errors" (fun () ->
            Linsep.min_errors_exact ~cap examples)
      with
      | Some (_, c) -> (answer, c)
      | None -> Guard.solver_error "pipebench: no classifier within %d errors" cap)

let count_serve (b : Serve.stats) (a : Serve.stats) =
  let d name x y = Trace.count name (float_of_int (y - x)) in
  d "serve.cold_entities" b.st_cold_evals a.st_cold_evals;
  d "serve.shed"
    (b.st_shed_overload + b.st_shed_breaker)
    (a.st_shed_overload + a.st_shed_breaker);
  d "serve.failed" b.st_eval_failures a.st_eval_failures;
  d "eval_cache.hits" b.st_cache.hits a.st_cache.hits;
  d "eval_cache.lookups"
    (b.st_cache.hits + b.st_cache.misses)
    (a.st_cache.hits + a.st_cache.misses);
  d "eval_cache.evictions" b.st_cache.evictions a.st_cache.evictions;
  d "eval_cache.flips" b.st_cache.flips a.st_cache.flips

(* [f ()] with the serving counters it moves recorded, when tracing. *)
let serve_counted sv f =
  if not !Trace.enabled then f ()
  else begin
    let before = Serve.stats sv in
    Fun.protect ~finally:(fun () -> count_serve before (Serve.stats sv)) f
  end

let publish sv model =
  serve_counted sv (fun () ->
      Trace.span "model_store.publish" (fun () -> Serve.publish sv model))

let serve_batch sv ~db_key ~db entities =
  match
    serve_counted sv (fun () ->
        Trace.span "serve.classify" (fun () ->
            Serve.classify sv ~db_key ~db entities))
  with
  | Serve.Served s -> s
  | Serve.Shed _ -> raise (Op_failed "serve: shed")
  | Serve.Failed f -> raise (Op_failed ("serve: " ^ Guard.failure_to_string f))

type trained = {
  t : Labeling.training;
  stat : Statistic.t;
  examples : Linsep.example list;
  answer : Nsep.answer;
  model : Model_io.model;
  bytes : string;
}

(* Text to a published model. *)
let train ~m sv train_text =
  let t = parse train_text in
  let stat, examples, answer, classifier =
    guarded (fun () ->
        let stat =
          if !Trace.enabled then features_decomposed ~m t
          else Atoms_sep.pruned_features ~m t
        in
        let examples =
          Trace.span "statistic.examples" (fun () -> Statistic.examples stat t)
        in
        let answer, classifier = fit examples in
        (stat, examples, answer, classifier))
  in
  let model = Model_io.make stat classifier in
  let bytes =
    Trace.span "model_io.save" (fun () -> Model_io.to_string_checksummed model)
  in
  Trace.count "model_io.bytes" (float_of_int (String.length bytes));
  ignore (publish sv model : int);
  { t; stat; examples; answer; model; bytes }

(* [Serve.classify] keys every entity ([Neighborhood.key] when the
   model's features are connected) and evaluates each cold one with
   [Statistic.vector]. The benchmark cannot wrap those internal calls, so
   a traced iteration repeats them on the same inputs right after the
   request, outside its timing, as children of the request's span. *)
let shadow_serving ~stat ~db ~radius ~keys entities =
  let seen key = Hashtbl.mem keys key in
  Trace.under (Trace.last_closed ()) (fun () ->
      let keyed =
        match radius with
        | None -> List.map (fun e -> (e, Elem.to_string e)) entities
        | Some r ->
            Trace.count "neighborhood.keys" (float_of_int (List.length entities));
            Trace.span "neighborhood.key" (fun () ->
                List.map (fun e -> (e, Neighborhood.key ~radius:r db e)) entities)
      in
      let cold = List.filter (fun (_, k) -> not (seen k)) keyed in
      List.iter (fun (_, k) -> Hashtbl.replace keys k ()) keyed;
      Trace.span "statistic.vector" (fun () ->
          List.iter (fun (e, _) -> ignore (Statistic.vector stat db e)) cold);
      List.length cold)

(* ---- oracle ---------------------------------------------------------- *)

let labels_of results = List.sort compare results

let check_served r ~what ~expected (s : Serve.served) =
  List.iter
    (fun (e, l) ->
      match Labeling.get_opt e expected with
      | Some l' when Labeling.label_equal l l' -> ()
      | _ -> mismatch r "%s: served label of %s differs from Model_io.apply" what (Elem.to_string e))
    s.sv_results

(* The timed path's verdict and model against the library's reference
   entry points. A [Sep] verdict is checked by evaluating its certified
   classifier exactly; an [Unsep] verdict by an exact inconsistency
   witness, else the exact simplex. *)
let check_training r ~m ~noisy (tr : trained) =
  let sep =
    match tr.answer.verdict with
    | Nsep.Sep c ->
        if Linsep.errors c tr.examples <> 0 then
          mismatch r "Sep verdict whose classifier errs in exact arithmetic";
        true
    | Nsep.Unsep | Nsep.Unknown _ ->
        if
          Linsep.separable_iff_consistent tr.examples
          && Linsep.separable tr.examples <> None
        then mismatch r "Unsep verdict on exactly separable examples";
        false
  in
  if sep = noisy then
    mismatch r "instance %s separable" (if noisy then "with flipped twins is" else "is not");
  let reference =
    if sep then
      match Cqfeat.generate_b (Language.Cq_atoms { m; p = None }) tr.t with
      | Ok (Some (stat, c)) -> Some (stat, c)
      | _ -> None
    else
      match Atoms_sep.min_errors_b ~m ~cap tr.t with
      | Ok (Some (_, stat, c)) -> Some (stat, c)
      | _ -> None
  in
  match reference with
  | None -> mismatch r "the reference entry point found no model"
  | Some (stat, c) ->
      if not (List.equal Cq.equal stat tr.stat) then
        mismatch r "statistic differs from the reference entry point";
      if Model_io.to_string_checksummed (Model_io.make stat c) <> tr.bytes then
        mismatch r "model bytes differ from the reference entry point"

(* ---- workloads -------------------------------------------------------- *)

let serve_config =
  {
    Serve.default_config with
    eval_rate = 1e12;
    eval_burst = 1e12;
    eval_timeout = Some 60.;
    eval_fuel = None;
  }

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_serve dir =
  remove_tree dir;
  Serve.create ~config:serve_config (Model_store.open_ ~dir)

(* Iterate until [seconds] have passed and at least [min_iters] ran. In
   a traced run, [traced_iter i] picks the iterations that record spans;
   the others give the untraced baseline for the overhead share. *)
let iterate r ~seconds ~min_iters ~trace ~traced_iter body =
  let start = now () in
  let i = ref 0 in
  while
    (!i < min_iters || now () -. start < seconds) && now () -. start < 150.
  do
    if now () -. r.last_reference >= reference_every then time_reference r;
    let traced = trace && traced_iter !i in
    Trace.enabled := traced;
    Trace.set_request !i;
    r.iter_ops <- 0.;
    body !i;
    Trace.enabled := false;
    if traced then begin
      r.traced_wall <- r.traced_wall +. r.iter_ops;
      r.traced_iters <- r.traced_iters + 1
    end
    else begin
      r.untraced_wall <- r.untraced_wall +. r.iter_ops;
      r.untraced_iters <- r.untraced_iters + 1
    end;
    incr i
  done

(* setup_s is the median of this many set-ups. Where the workload has
   no single serving model, set-up [rep] trains on instance [rep], so the
   median spans instances rather than resting on one. *)
let setups = 21

let setup_reps r n f =
  let result = ref None in
  for rep = 1 to n do
    time_reference r;
    let t0 = now () in
    let v = f rep in
    r.setup <- (local_scale r *. (now () -. t0)) :: r.setup;
    result := Some v
  done;
  Option.get !result

let pool_size = 128

let cqm_train r ~dir ~seed ~seconds ~trace =
  let pool, sv =
    setup_reps r setups (fun rep ->
        let pool = Array.init pool_size (Inputs.cqm_instance ~seed) in
        let sv = fresh_serve (Filename.concat dir (Printf.sprintf "store%d" rep)) in
        ignore (train ~m:3 sv pool.(rep).train_text : trained);
        (pool, sv))
  in
  (* One full exact solve per run, beside the per-verdict checks. *)
  untraced (fun () ->
      let inst = pool.(0) in
      let tr = train ~m:3 sv inst.train_text in
      if (Linsep.separable tr.examples <> None) = inst.noisy then
        mismatch r "exact simplex disagrees with the Nsep verdict");
  iterate r ~seconds ~min_iters:acc_instances ~trace
    ~traced_iter:(fun i -> i mod 2 = 0)
    (fun i ->
      let inst = pool.(i mod pool_size) in
      match
        op r (fun () -> (train ~m:3 sv inst.train_text, parse inst.heldout_text))
      with
      | None -> ()
      | Some ((tr, held), dt) -> (
          r.train <- dt :: r.train;
          let db = held.db in
          let entities = Db.entities db in
          let n = List.length entities in
          let db_key = Printf.sprintf "cqm%d" i in
          match op r (fun () -> serve_batch sv ~db_key ~db entities) with
          | None -> ()
          | Some (cold, dt) ->
              r.classify <- dt :: r.classify;
              r.classified <- r.classified + n;
              r.serving_s <- r.serving_s +. dt;
              if !Trace.enabled then
                ignore
                  (shadow_serving ~stat:tr.stat ~db
                     ~radius:(Neighborhood.model_radius tr.stat)
                     ~keys:(Hashtbl.create 1) entities
                    : int);
              let warm = op r (fun () -> serve_batch sv ~db_key ~db entities) in
              untraced (fun () ->
                  check_training r ~m:3 ~noisy:inst.noisy tr;
                  let expected = Model_io.apply tr.model db in
                  if cold.sv_cold <> n then mismatch r "cold request hit the cache";
                  check_served r ~what:"cold" ~expected cold;
                  match warm with
                  | None -> ()
                  | Some (w, _) ->
                      if w.sv_hits <> n then mismatch r "warm request missed the cache";
                      if labels_of w.sv_results <> labels_of cold.sv_results then
                        mismatch r "warm labels differ from cold labels";
                  if i < acc_instances then
                    r.acc <- Planted.accuracy ~truth:held expected :: r.acc)))

let structural r ~seed ~seconds ~trace =
  let decide (t : Labeling.training) =
    guarded (fun () ->
        let consistent ch =
          Trace.span "preorder_chain" (fun () ->
              Result.is_ok (Preorder_chain.consistent_labels ch t.labeling))
        in
        let ghw = consistent (Trace.span "ghw_sep.chain" (fun () -> Ghw_sep.chain ~k:1 t)) in
        let entities = Db.entities t.db in
        let n = List.length entities in
        Trace.count "cq_sep.hom_pairs" (float_of_int (n * n));
        let matrix =
          Trace.span "cq_sep.hom_preorder" (fun () -> Cq_sep.hom_preorder t.db entities)
        in
        let cq =
          consistent
            (Trace.span "preorder_chain" (fun () ->
                 Preorder_chain.build ~entities:(Array.of_list entities) ~matrix))
        in
        (ghw, cq))
  in
  let pool =
    setup_reps r setups (fun rep ->
        let pool = Array.init pool_size (Inputs.structural_instance ~seed) in
        ignore (decide (parse pool.(rep).train_text) : bool * bool);
        pool)
  in
  iterate r ~seconds ~min_iters:acc_instances ~trace
    ~traced_iter:(fun i -> i mod 2 = 0)
    (fun i ->
      let inst = pool.(i mod pool_size) in
      match
        op r (fun () ->
            let t = parse inst.train_text in
            let held = parse inst.heldout_text in
            (t, held, decide t))
      with
      | None -> ()
      | Some ((t, held, (ghw, cq)), dt) -> (
          r.train <- dt :: r.train;
          let alg1 () =
            Trace.span "ghw_sep.classify" (fun () ->
                guarded (fun () -> Ghw_sep.classify ~k:1 t held.db))
          in
          match op r alg1 with
          | None -> ()
          | Some (labels, dt) ->
              r.classify <- dt :: r.classify;
              r.classified <- r.classified + Labeling.cardinal labels;
              r.serving_s <- r.serving_s +. dt;
              untraced (fun () ->
                  if not ghw then mismatch r "planted instance not GHW(1)-separable";
                  if ghw && not cq then mismatch r "GHW(1)-separable but not CQ-separable";
                  if Ghw_sep.separable ~k:1 t <> ghw then
                    mismatch r "GHW(1) verdict differs from Ghw_sep.separable";
                  if Cq_sep.separable t <> cq then
                    mismatch r "CQ verdict differs from Cq_sep.separable";
                  if
                    Labeling.disagreement (Ghw_sep.classify ~k:1 t t.db) t.labeling
                    <> 0
                  then mismatch r "Algorithm 1 does not reproduce the training labels";
                  if i < acc_instances then
                    r.acc <- Planted.accuracy ~truth:held labels :: r.acc)))

(* serve_mix: batches of [batch] entities, [fresh_per] of them fresh in
   every fourth request and the rest from a hot set. Every [republish]
   requests the next of [serving_models] models is retrained from its
   training text and published, which flips the version and empties the
   cache. Those retrainings, with each model's first training before
   the loop, are the workload's train samples: timed across the whole
   run rather than only during set-up, they are as steady as the
   serving figures, and a run that gets through few periods still has
   enough of them for a tail. A model's cold cost follows its
   feature count, which differs between training graphs, so rotating
   through several models, and keying a hot set of a few hundred
   entities (whose neighborhood sizes set the key costs), averages out
   what differs between seeds. *)
let batch = 32
let hot_size = 256
let fresh_per = 2
let republish = 80
let serving_models = 21 (* odd, so traced periods visit every model *)

let serve_mix r ~dir ~seed ~seconds ~trace =
  let sv, train_texts, held =
    setup_reps r setups (fun rep ->
        let train_texts, heldout_text = Inputs.serving ~models:serving_models ~seed in
        let sv = fresh_serve (Filename.concat dir (Printf.sprintf "store%d" rep)) in
        ignore (train ~m:2 sv train_texts.(0) : trained);
        (sv, train_texts, parse heldout_text))
  in
  let db = held.db in
  (* Every model, trained once and checked against the reference entry
     points; model 0 is published last, so period [p] serves model
     [p mod serving_models]. *)
  let models = Array.make serving_models None in
  for k = serving_models - 1 downto 0 do
    let tr =
      match untraced (fun () -> op r (fun () -> train ~m:2 sv train_texts.(k))) with
      | Some (tr, dt) ->
          r.train <- dt :: r.train;
          tr
      | None -> failwith "serve_mix: a serving model failed to train"
    in
    match Neighborhood.model_radius tr.stat with
    | Some radius when radius >= 2 ->
        check_training r ~m:2 ~noisy:false tr;
        let expected = Model_io.apply tr.model db in
        r.acc <- Planted.accuracy ~truth:held expected :: r.acc;
        models.(k) <- Some (tr, radius, expected)
    | _ -> failwith "serve_mix: a serving model has a disconnected feature"
  done;
  let models = Array.map Option.get models in
  let current = ref 0 in
  let order = Array.of_list (Db.entities db) in
  let rng = Random.State.make [| seed |] in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let fresh_pool = Array.length order - hot_size in
  let keys = Hashtbl.create 1024 in
  (* At least one republish, however short the run. *)
  iterate r ~seconds ~min_iters:(2 * republish) ~trace
    ~traced_iter:(fun i -> i / republish mod 2 = 0)
    (fun i ->
      if i > 0 && i mod republish = 0 then begin
        Hashtbl.reset keys;
        let k = i / republish mod serving_models in
        match op r (fun () -> train ~m:2 sv train_texts.(k)) with
        | Some (again, dt) ->
            r.train <- dt :: r.train;
            r.serving_s <- r.serving_s +. dt;
            let first, _, _ = models.(k) in
            if again.bytes <> first.bytes then mismatch r "retrained serving model %d differs" k;
            current := k
        | None -> ()
      end;
      let (tr : trained), radius, expected = models.(!current) in
      let fresh = if i mod 4 = 0 then fresh_per else 0 in
      let entities =
        List.init (batch - fresh) (fun j -> order.(((i * batch) + j) mod hot_size))
        @ List.init fresh (fun j ->
              order.(hot_size + (((i / 4 * fresh_per) + j) mod fresh_pool)))
      in
      match op r (fun () -> serve_batch sv ~db_key:"serve" ~db entities) with
      | None -> ()
      | Some (s, dt) ->
          r.classify <- dt :: r.classify;
          r.classified <- r.classified + batch;
          r.serving_s <- r.serving_s +. dt;
          if !Trace.enabled then begin
            let cold = shadow_serving ~stat:tr.stat ~db ~radius:(Some radius) ~keys entities in
            if cold <> s.sv_cold then
              mismatch r "re-measured cold set (%d) differs from the served one (%d)" cold s.sv_cold
          end;
          untraced (fun () -> check_served r ~what:"serve_mix" ~expected s))
