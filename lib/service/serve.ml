(* The serving tier: versioned models, cached verdicts, admission.

   One [Serve.t] wraps a [Model_store] with an in-memory snapshot of
   the current model. Every batch classifies against exactly one
   snapshot — the snapshot only swaps after a publish has fully
   committed to disk, so a batch arriving while a publish is
   mid-flight is served by the previous version, and no batch ever
   mixes versions.

   The degradation ladder, in order of consultation:

   1. no model published            -> reject [invalid]
   2. all requested verdicts cached -> serve, unconditionally: cache
      hits cost no hom search, so the hot path stays up even when the
      ladder below is shedding
   3. eval breaker open             -> reject [breaker] (repeated
      budget exhaustion means cold evals are not completing; keep
      them off the pool until the cool-down)
   4. token bucket short            -> reject [overload] with a
      retry-after; cold evals pay one token each, so sustained
      overload degrades to cache-only service instead of collapsing
   5. otherwise evaluate the cold entities under the configured
      budget, all in one [Statistic.vectors_for] call, and cache the
      verdicts.

   Cache keys are canonical neighborhood serializations when the
   model's features are all connected ([Neighborhood.model_radius]);
   key construction itself runs under a small fuel budget and falls
   back to a database-identity key when the ball is too dense to walk
   cheaply — a fallback key is merely less shareable, never wrong.
   [db_key] only names the database in those fallback keys. Keys are
   memoized per physical database (see [key_memo]), so a warm batch on
   the database served last walks no ball, and neither does a cold
   batch after a publish. *)

type config = {
  cache_capacity : int;
  eval_rate : float;  (** cold-entity evaluations admitted per second *)
  eval_burst : float;  (** token-bucket depth, in cold evaluations *)
  eval_timeout : float option;  (** budget per classify batch *)
  eval_fuel : int option;
  key_fuel : int;  (** fuel for neighborhood-key construction *)
  breaker_threshold : int;
  breaker_cooldown : float;
  db_cache_slots : int;
}

let default_config =
  {
    cache_capacity = 65536;
    eval_rate = 500.;
    eval_burst = 1000.;
    eval_timeout = Some 5.;
    eval_fuel = Some 5_000_000;
    key_fuel = 200_000;
    breaker_threshold = 5;
    breaker_cooldown = 5.;
    db_cache_slots = 8;
  }

type snapshot = {
  s_version : int;
  s_model : Model_io.model;
  s_radius : int option;
      (* [Some r]: neighborhood keys of radius [r]; [None]: some
         feature is disconnected, use database-identity keys. *)
  s_classify : int array -> Labeling.label;
      (* [Linsep.classify] applied to the model's classifier once, at
         install, so cold batches skip restaging it. *)
}

type db_entry = { de_path : string; de_fingerprint : string; de_db : Db.t }

type t = {
  store : Model_store.t;
  cfg : config;
  cache : Eval_cache.t;
  breaker : Breaker.t;
  mutable snapshot : snapshot option;
  mutable tokens : float;
  mutable refilled_at : float;
  mutable dbs : db_entry list;  (* FIFO, newest first *)
  mutable served_batches : int;
  mutable served_entities : int;
  mutable cold_evals : int;
  mutable shed_overload : int;
  mutable shed_breaker : int;
  mutable eval_failures : int;
  mutable publishes : int;
  mutable rollbacks : int;
}

let snapshot_of version model =
  {
    s_version = version;
    s_model = model;
    s_radius = Neighborhood.model_radius model.Model_io.statistic;
    s_classify = Linsep.classify model.Model_io.classifier;
  }

let install t version model =
  t.snapshot <- Some (snapshot_of version model);
  Eval_cache.set_version t.cache version

let create ?(config = default_config) store =
  let t =
    {
      store;
      cfg = config;
      cache = Eval_cache.create ~capacity:config.cache_capacity;
      breaker =
        Breaker.create ~threshold:config.breaker_threshold
          ~cooldown:config.breaker_cooldown ();
      snapshot = None;
      tokens = config.eval_burst;
      refilled_at = Budget.Clock.now ();
      dbs = [];
      served_batches = 0;
      served_entities = 0;
      cold_evals = 0;
      shed_overload = 0;
      shed_breaker = 0;
      eval_failures = 0;
      publishes = 0;
      rollbacks = 0;
    }
  in
  (match Model_store.current_version store with
  | Some v -> install t v (Model_store.load store v)
  | None -> ());
  t

let store t = t.store
let current_version t = match t.snapshot with Some s -> Some s.s_version | None -> None

let publish t m =
  let v = Model_store.publish t.store m in
  install t v m;
  t.publishes <- t.publishes + 1;
  v

let rollback t =
  match Model_store.rollback t.store with
  | Error _ as e -> e
  | Ok v ->
      install t v (Model_store.load t.store v);
      t.rollbacks <- t.rollbacks + 1;
      Ok v

let models t = (Model_store.current_version t.store, Model_store.list t.store)

(* Token bucket over the Budget clock (so tests drive time). *)
let refill t =
  let now = Budget.Clock.now () in
  let dt = now -. t.refilled_at in
  if dt > 0. then begin
    t.tokens <- Float.min t.cfg.eval_burst (t.tokens +. (dt *. t.cfg.eval_rate));
    t.refilled_at <- now
  end

let db_identity_key ~db_key e =
  Printf.sprintf "db:%s|%s" db_key (Elem.to_string e)

(* The key memo: one slot, for the database served last. A key
   depends only on the database, the radius and the walk's fuel, and a
   [Db.t] is immutable, so the slot is identified by the physical
   database. [db_key] cannot identify it: a caller may reuse one for
   different contents. [Dense] records a walk that did not finish
   within its fuel; it is rendered with the request's own [db_key]. A
   single slot retains at most one database that is no longer served. *)
type key_outcome = Ball of string | Dense

type key_memo = {
  km_db : Db.t;
  km_radius : int;
  km_fuel : int;
  km_keys : key_outcome Elem.Tbl.t;  (* elements of [km_db]'s domain *)
}

let key_memo : key_memo option ref = ref None

let () =
  Runtime_state.register ~name:"serve.key_memo"
    ~validate:(fun () ->
      match !key_memo with
      | None -> true
      | Some m -> Elem.Tbl.length m.km_keys <= Db.domain_size m.km_db)
    (fun () -> key_memo := None)

let memo_for db ~radius ~fuel =
  match !key_memo with
  | Some m when m.km_db == db && m.km_radius = radius && m.km_fuel = fuel -> m
  | _ ->
      let m =
        {
          km_db = db;
          km_radius = radius;
          km_fuel = fuel;
          km_keys = Elem.Tbl.create 64;
        }
      in
      key_memo := Some m;
      m

let key_for t snap ~db_key db e =
  match snap.s_radius with
  | None -> db_identity_key ~db_key e
  | Some r -> (
      let memo = memo_for db ~radius:r ~fuel:t.cfg.key_fuel in
      let outcome =
        match Elem.Tbl.find_opt memo.km_keys e with
        | Some o -> o
        | None ->
            let budget = Budget.make ~fuel:t.cfg.key_fuel () in
            let o =
              match
                Guard.run budget (fun () -> Neighborhood.key ~radius:r db e)
              with
              | Ok k -> Ball k
              | Error _ -> Dense
            in
            (* Only elements of the domain: the table stays bounded by
               the database whatever entities a caller names. *)
            if Elem.Set.mem e (Db.domain db) then
              Elem.Tbl.replace memo.km_keys e o;
            o
      in
      match outcome with Ball k -> k | Dense -> db_identity_key ~db_key e)

type served = {
  sv_version : int;
  sv_results : (Elem.t * Labeling.label) list;  (** input order *)
  sv_hits : int;
  sv_cold : int;
}

type outcome =
  | Served of served
  | Shed of Jobq.reject
  | Failed of Guard.failure

let classify t ~db_key ~db entities =
  match t.snapshot with
  | None -> Shed (Jobq.Invalid "no model published")
  | Some snap ->
      refill t;
      Eval_cache.set_version t.cache snap.s_version;
      let keyed =
        List.map (fun e -> (e, key_for t snap ~db_key db e)) entities
      in
      let lookups =
        List.map
          (fun (e, k) ->
            (e, k, Eval_cache.find t.cache ~version:snap.s_version k))
          keyed
      in
      let cold =
        List.filter_map
          (fun (e, k, hit) -> if hit = None then Some (e, k) else None)
          lookups
      in
      let hits = List.length lookups - List.length cold in
      let serve results =
        t.served_batches <- t.served_batches + 1;
        t.served_entities <- t.served_entities + List.length results;
        Served
          {
            sv_version = snap.s_version;
            sv_results = results;
            sv_hits = hits;
            sv_cold = List.length cold;
          }
      in
      if cold = [] then
        (* Rung 2: a pure-hit batch is served even when everything
           below is shedding — this is the degraded-but-hot mode. *)
        serve
          (List.map
             (fun (e, _, hit) -> (e, Option.get hit))
             lookups)
      else begin
        let now = Budget.Clock.now () in
        let need = float_of_int (List.length cold) in
        (* Tokens before breaker: [Breaker.allow] on a recovering
           breaker claims the single half-open probe slot, so it must
           only be consulted once admission is otherwise certain. *)
        if t.tokens < need then begin
          t.shed_overload <- t.shed_overload + 1;
          Shed
            (Jobq.Overloaded
               { retry_after = (need -. t.tokens) /. t.cfg.eval_rate })
        end
        else begin
          if not (Breaker.allow t.breaker ~now) then begin
            t.shed_breaker <- t.shed_breaker + 1;
            Shed
              (Jobq.Breaker_open
                 {
                   job_class = "eval";
                   retry_after = Breaker.retry_after t.breaker ~now;
                 })
          end
          else begin
            t.tokens <- t.tokens -. need;
            let budget =
              Budget.make ?timeout:t.cfg.eval_timeout ?fuel:t.cfg.eval_fuel ()
            in
            let stat = snap.s_model.Model_io.statistic in
            match
              Guard.run budget (fun () ->
                  List.map2
                    (fun (_, k) (e, vec) -> (e, k, snap.s_classify vec))
                    cold
                    (Statistic.vectors_for stat db (List.map fst cold)))
            with
            | Error f ->
                t.eval_failures <- t.eval_failures + 1;
                if Guard.is_resource_failure f then
                  Breaker.failure t.breaker ~now:(Budget.Clock.now ())
                else Breaker.success t.breaker;
                Failed f
            | Ok cold_results ->
                Breaker.success t.breaker;
                t.cold_evals <- t.cold_evals + List.length cold_results;
                List.iter
                  (fun (_, k, lab) ->
                    Eval_cache.add t.cache ~version:snap.s_version k lab)
                  cold_results;
                (* [cold_results] holds the misses of [lookups] in
                   order, so one in-order merge restores input order. *)
                let rec merge lookups cold =
                  match (lookups, cold) with
                  | (e, _, Some lab) :: rest, _ -> (e, lab) :: merge rest cold
                  | (e, _, None) :: rest, (_, _, lab) :: cold ->
                      (e, lab) :: merge rest cold
                  | _ -> []
                in
                serve (merge lookups cold_results)
          end
        end
      end

(* Parsed-database cache keyed by path, revalidated by stat identity:
   device, inode, mtime (ns) and size. A changed file reparses; a
   rewritten-in-place file with identical stats is
   indistinguishable, as with any mtime-based cache. *)
let fingerprint st =
  Printf.sprintf "%d:%d:%h:%Ld" st.Unix.LargeFile.st_dev
    st.Unix.LargeFile.st_ino st.Unix.LargeFile.st_mtime
    st.Unix.LargeFile.st_size

let load_db t path =
  match Unix.LargeFile.stat path with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot stat %s: %s" path (Unix.error_message e))
  | st -> (
      let fp = fingerprint st in
      match
        List.find_opt
          (fun de -> de.de_path = path && de.de_fingerprint = fp)
          t.dbs
      with
      | Some de -> Ok (fp, de.de_db)
      | None -> (
          match Textfmt.parse_file path with
          | exception Textfmt.Parse_error msg ->
              Error (Printf.sprintf "cannot parse %s: %s" path msg)
          | exception Sys_error msg -> Error msg
          | doc ->
              let db = doc.Textfmt.db in
              let keep =
                List.filteri
                  (fun i de -> i < t.cfg.db_cache_slots - 1 && de.de_path <> path)
                  t.dbs
              in
              t.dbs <- { de_path = path; de_fingerprint = fp; de_db = db } :: keep;
              Ok (fp, db)))

type stats = {
  st_version : int option;
  st_served_batches : int;
  st_served_entities : int;
  st_cache : Eval_cache.stats;
  st_cold_evals : int;
  st_shed_overload : int;
  st_shed_breaker : int;
  st_eval_failures : int;
  st_publishes : int;
  st_rollbacks : int;
  st_tokens : float;
}

let stats t =
  refill t;
  {
    st_version = current_version t;
    st_served_batches = t.served_batches;
    st_served_entities = t.served_entities;
    st_cache = Eval_cache.stats t.cache;
    st_cold_evals = t.cold_evals;
    st_shed_overload = t.shed_overload;
    st_shed_breaker = t.shed_breaker;
    st_eval_failures = t.eval_failures;
    st_publishes = t.publishes;
    st_rollbacks = t.rollbacks;
    st_tokens = t.tokens;
  }
