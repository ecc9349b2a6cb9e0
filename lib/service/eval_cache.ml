(* Bounded verdict cache for the serving tier.

   Entries are keyed by canonical entity-neighborhood strings (see
   [Neighborhood]) and tagged with the model version they were
   computed under: [set_version] on a publish or rollback clears the
   table wholesale, so a stale verdict can never outlive its model.
   Eviction is FIFO — verdicts are cheap to recompute and uniform in
   size, so recency tracking buys little here.

   Every live cache is reachable from one registered [Runtime_state]
   entry: [reset_caches] in a forked worker empties the tables (a
   pure cache, dropping entries only costs recomputation), and the
   registry validator checks the capacity bound. The registry holds
   the caches weakly, so a dropped cache and its table are collected
   as soon as its owner is. *)

type t = {
  capacity : int;
  tbl : (string, Labeling.label) Hashtbl.t;
  order : string Queue.t;
  mutable version : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flips : int;
}

let live : t Weak.t ref = ref (Weak.create 0)

let live_caches () =
  let w = !live in
  List.filter_map (Weak.get w) (List.init (Weak.length w) Fun.id)

let clear t =
  Hashtbl.reset t.tbl;
  Queue.clear t.order

let () =
  Runtime_state.register ~name:"service.eval_cache"
    ~validate:(fun () ->
      List.for_all
        (fun t -> Hashtbl.length t.tbl <= t.capacity)
        (live_caches ()))
    (fun () -> List.iter clear (live_caches ()))

let create ~capacity =
  if capacity < 1 then invalid_arg "Eval_cache.create: capacity < 1";
  let t =
    {
      capacity;
      tbl = Hashtbl.create 64;
      order = Queue.create ();
      version = -1;
      hits = 0;
      misses = 0;
      evictions = 0;
      flips = 0;
    }
  in
  (* Pruned here: the registry is as long as the caches still alive. *)
  let caches = t :: live_caches () in
  let w = Weak.create (List.length caches) in
  List.iteri (fun i c -> Weak.set w i (Some c)) caches;
  live := w;
  t

let set_version t v =
  if v <> t.version then begin
    clear t;
    t.version <- v;
    t.flips <- t.flips + 1
  end

let find t ~version key =
  if version <> t.version then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    match Hashtbl.find_opt t.tbl key with
    | Some _ as r ->
        t.hits <- t.hits + 1;
        r
    | None ->
        t.misses <- t.misses + 1;
        None

let add t ~version key label =
  set_version t version;
  if not (Hashtbl.mem t.tbl key) then begin
    if Hashtbl.length t.tbl >= t.capacity then begin
      (match Queue.take_opt t.order with
      | Some oldest ->
          Hashtbl.remove t.tbl oldest;
          t.evictions <- t.evictions + 1
      | None -> ());
      ()
    end;
    Hashtbl.add t.tbl key label;
    Queue.add key t.order
  end

type stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  flips : int;
}

let stats t =
  {
    entries = Hashtbl.length t.tbl;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    flips = t.flips;
  }
