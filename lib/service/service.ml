(* The job service: WAL-journaled admission, supervised execution,
   crash-only recovery.

   Every state transition that must survive a crash is an event in the
   WAL, appended and fsynced *before* the transition is acknowledged:

     Ev_submitted   durable admission — the job will run (or be shed
                    with a journaled reason), even across a SIGKILL
     Ev_started     the job was handed to a worker (recovery treats
                    started-but-not-completed as re-runnable: workers
                    die with the daemon, so at-least-once execution)
     Ev_completed   the job's outcome — journaled before the result is
                    observable, so a result once served never changes
     Ev_shed        the job was dropped, with the structured reason

   Recovery is replay: fold the events, truncate any torn tail, and
   rebuild jobs/queue. Completed and shed jobs keep their terminal
   state (dedup by id — an event replayed twice, or a job completed
   just before the crash, cannot run again); queued and started jobs
   re-enter the queue in original submission order. That yields
   at-least-once execution with exactly-once completion recording.

   Events are Marshal-encoded inside checksummed frames. Specs are
   plain data, so the encoding is stable within a binary; a payload
   Marshal rejects (version skew) is treated exactly like a torn tail:
   the longest decodable prefix wins and the rest is discarded. *)

type state =
  | Queued
  | Running
  | Done of string
  | Failed of string
  | Shed of string

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done s -> "done: " ^ s
  | Failed m -> "failed: " ^ m
  | Shed code -> "shed: " ^ code

type event =
  | Ev_submitted of {
      id : string;
      spec : Job.spec;
      at : float;
      deadline : float option;
    }
  | Ev_started of { id : string; at : float }
  | Ev_completed of { id : string; at : float; outcome : (string, string) result }
  | Ev_shed of { id : string; at : float; code : string }

type jobinfo = {
  ji_id : string;
  ji_spec : Job.spec;
  ji_deadline : float option;
  mutable ji_state : state;
}

type config = {
  wal_path : string;
  pool_size : int;
  queue_capacity : int;
  default_timeout : float option;
  breaker_threshold : int;
  breaker_cooldown : float;
  retries : int;
  retry_backoff : float;
  grace : float;
}

let default_config ~wal_path =
  {
    wal_path;
    pool_size = 4;
    queue_capacity = 64;
    default_timeout = None;
    breaker_threshold = 5;
    breaker_cooldown = 30.0;
    retries = 0;
    retry_backoff = 0.05;
    grace = 1.0;
  }

type recovery = {
  replayed_events : int;
  recovered_completed : int;
  requeued : int;
  shed_on_recovery : int;
  dropped_bytes : int;
}

type t = {
  cfg : config;
  wal : Wal.t;
  jobs : (string, jobinfo) Hashtbl.t;
  mutable submission_order : string list;  (* newest first *)
  mutable seq : int;
  queue : string Jobq.t;  (* payloads are job ids *)
  sup : Supervisor.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  mutable draining : bool;
  mutable avg_duration : float;  (* EWMA of completed-job durations *)
  mutable completed_count : int;
  recovery : recovery;
}

let journal t ev = Wal.append t.wal (Marshal.to_string (ev : event) [])

let breaker t cls =
  match Hashtbl.find_opt t.breakers cls with
  | Some b -> b
  | None ->
      let b =
        Breaker.create ~threshold:t.cfg.breaker_threshold
          ~cooldown:t.cfg.breaker_cooldown ()
      in
      Hashtbl.add t.breakers cls b;
      b

(* Job ids: a monotone sequence number plus a checksum of the spec —
   readable, unique per log, and a stable jitter seed. *)
let make_id seq spec =
  Printf.sprintf "j%06d-%08x" seq
    (Model_io.crc32 (Printf.sprintf "%d %s" seq (Job.describe spec)))

let seq_of_id id =
  match String.index_opt id '-' with
  | Some i when i > 1 && id.[0] = 'j' ->
      Option.value ~default:0 (int_of_string_opt (String.sub id 1 (i - 1)))
  | _ -> 0

(* {2 Recovery} *)

let decode_events raw_records =
  (* Stop at the first payload Marshal rejects and report the offset
     where the valid prefix ends — version skew degrades like a torn
     tail instead of crashing recovery. *)
  let rec go acc prev_end = function
    | [] -> List.rev acc, prev_end, false
    | (payload, end_off) :: rest -> begin
        match (Marshal.from_string payload 0 : event) with
        | ev -> go (ev :: acc) end_off rest
        | exception _ -> List.rev acc, prev_end, true
      end
  in
  go [] 0 raw_records

let apply_event jobs order seq = function
  | Ev_submitted { id; spec; deadline; _ } ->
      if not (Hashtbl.mem jobs id) then begin
        Hashtbl.add jobs id
          { ji_id = id; ji_spec = spec; ji_deadline = deadline;
            ji_state = Queued };
        order := id :: !order;
        seq := max !seq (seq_of_id id)
      end
  | Ev_started { id; _ } -> begin
      match Hashtbl.find_opt jobs id with
      (* cqlint: allow R13 — replay: Ev_started is already in the WAL *)
      | Some ji when ji.ji_state = Queued -> ji.ji_state <- Running
      | _ -> ()
    end
  | Ev_completed { id; outcome; _ } -> begin
      match Hashtbl.find_opt jobs id with
      | Some ji -> begin
          (* First completion wins: replaying a duplicated event (or a
             late one after a shed) cannot overwrite a terminal state. *)
          match ji.ji_state with
          | Done _ | Failed _ | Shed _ -> ()
          | Queued | Running ->
              (* cqlint: allow R13 — replay: Ev_completed is already in the WAL *)
              ji.ji_state <-
                (match outcome with Ok s -> Done s | Error m -> Failed m)
        end
      | None -> ()
    end
  | Ev_shed { id; code; _ } -> begin
      match Hashtbl.find_opt jobs id with
      | Some ji -> begin
          match ji.ji_state with
          | Done _ | Failed _ | Shed _ -> ()
          (* cqlint: allow R13 — replay: Ev_shed is already in the WAL *)
          | Queued | Running -> ji.ji_state <- Shed code
        end
      | None -> ()
    end

let validate_config cfg =
  if cfg.pool_size < 1 then invalid_arg "Service.start: pool_size must be >= 1";
  if cfg.queue_capacity < 1 then
    invalid_arg "Service.start: queue_capacity must be >= 1";
  if cfg.breaker_threshold < 1 then
    invalid_arg "Service.start: breaker_threshold must be >= 1";
  if cfg.breaker_cooldown <= 0.0 then
    invalid_arg "Service.start: breaker_cooldown must be > 0";
  if cfg.retries < 0 then invalid_arg "Service.start: retries must be >= 0";
  if cfg.retry_backoff < 0.0 then
    invalid_arg "Service.start: retry_backoff must be >= 0";
  if cfg.grace < 0.0 then invalid_arg "Service.start: grace must be >= 0"

let start cfg =
  validate_config cfg;
  let rep = Wal.replay cfg.wal_path in
  let events, marshal_valid_bytes, marshal_damage = decode_events rep.Wal.records in
  (* Truncate the torn/undecodable tail before reopening for append,
     so new frames land on clean framing. *)
  let effective_valid =
    if marshal_damage then marshal_valid_bytes else rep.Wal.valid_bytes
  in
  let dropped = rep.Wal.total_bytes - effective_valid in
  if dropped > 0 then
    ignore
      (Wal.repair cfg.wal_path
         { rep with
           Wal.valid_bytes = effective_valid;
           damage =
             (match rep.Wal.damage with
             | Some _ as d -> d
             | None -> Some (Journal_codec.Corrupt "undecodable event"));
         });
  let jobs = Hashtbl.create 64 in
  let order = ref [] in
  let seq = ref 0 in
  List.iter (apply_event jobs order seq) events;
  let wal = Wal.open_append cfg.wal_path in
  let now = Budget.Clock.now () in
  let queue = Jobq.create ~capacity:cfg.queue_capacity in
  let retry =
    if cfg.retries > 0 then Some (cfg.retries, cfg.retry_backoff) else None
  in
  let t =
    {
      cfg;
      wal;
      jobs;
      submission_order = !order;
      seq = !seq;
      queue;
      sup = Supervisor.create ~pool_size:cfg.pool_size ~grace:cfg.grace ?retry ();
      breakers = Hashtbl.create 8;
      draining = false;
      avg_duration = 0.0;
      completed_count = 0;
      recovery =
        { replayed_events = List.length events; recovered_completed = 0;
          requeued = 0; shed_on_recovery = 0; dropped_bytes = dropped };
    }
  in
  (* Re-enqueue incomplete jobs in original submission order. Expired
     deadlines are shed now, with the shed journaled like any other. *)
  let completed = ref 0 and requeued = ref 0 and shed = ref 0 in
  List.iter
    (fun id ->
      let ji = Hashtbl.find jobs id in
      match ji.ji_state with
      | Done _ | Failed _ -> incr completed
      | Shed _ -> ()
      | Queued | Running -> begin
          match ji.ji_deadline with
          | Some d when d <= now ->
              journal t (Ev_shed { id; at = now; code = "deadline" });
              ji.ji_state <- Shed "deadline";
              incr shed
          | deadline ->
              (* cqlint: allow R13 — Queued is the state Ev_submitted
                 journaled; requeueing after recovery is idempotent *)
              ji.ji_state <- Queued;
              Jobq.enqueue queue ~id ~deadline ~now id;
              incr requeued
        end)
    (List.rev !order);
  { t with
    recovery =
      { t.recovery with
        recovered_completed = !completed;
        requeued = !requeued;
        shed_on_recovery = !shed;
      };
  }

let recovery t = t.recovery
let config t = t.cfg

(* {2 Admission} *)

let projected_wait t =
  let backlog = Jobq.length t.queue + Supervisor.running_count t.sup in
  if t.avg_duration <= 0.0 then 0.0
  else
    float_of_int backlog *. t.avg_duration
    /. float_of_int (Supervisor.pool_size t.sup)

let submit t ?deadline spec =
  let now = Budget.Clock.now () in
  if t.draining then Error Jobq.Draining
  else
    match Job.validate spec with
    | Error msg -> Error (Jobq.Invalid msg)
    | Ok () ->
        let spec =
          match spec.Job.timeout, t.cfg.default_timeout with
          | None, (Some _ as d) -> { spec with Job.timeout = d }
          | _ -> spec
        in
        let cls = Job.job_class spec in
        let br = breaker t cls in
        if not (Breaker.allow br ~now) then
          Error
            (Jobq.Breaker_open
               { job_class = cls; retry_after = Breaker.retry_after br ~now })
        else begin
          t.seq <- t.seq + 1;
          let id = make_id t.seq spec in
          match
            Jobq.admit t.queue ~now ~projected_wait:(projected_wait t) ~id
              ~deadline id
          with
          | Error _ as err ->
              t.seq <- t.seq - 1;  (* nothing journaled; reuse the seq *)
              err
          | Ok () ->
              (* Durable before acknowledged: once the caller sees the
                 id, the job survives any crash. *)
              journal t (Ev_submitted { id; spec; at = now; deadline });
              Hashtbl.add t.jobs id
                { ji_id = id; ji_spec = spec; ji_deadline = deadline;
                  ji_state = Queued };
              t.submission_order <- id :: t.submission_order;
              Ok id
        end

(* {2 The event-loop step} *)

let record_finished t now (f : Supervisor.finished) =
  (match Hashtbl.find_opt t.jobs f.Supervisor.f_id with
  | None -> ()
  | Some ji -> begin
      match ji.ji_state with
      | Done _ | Failed _ | Shed _ -> ()  (* terminal states stick *)
      | Queued | Running ->
          let outcome =
            match f.Supervisor.f_outcome with
            | Ok s -> Ok s
            | Error failure -> Error (Guard.failure_to_string failure)
          in
          journal t
            (Ev_completed { id = f.Supervisor.f_id; at = now; outcome });
          ji.ji_state <-
            (match outcome with Ok s -> Done s | Error m -> Failed m)
    end);
  let br = breaker t f.Supervisor.f_class in
  (match f.Supervisor.f_outcome with
  | Ok _ -> Breaker.success br
  | Error failure ->
      if Guard.is_resource_failure failure then Breaker.failure br ~now
      else Breaker.success br);
  t.completed_count <- t.completed_count + 1;
  (* EWMA with a short memory: recent durations dominate the projected
     wait used for deadline-aware shedding. *)
  t.avg_duration <-
    (if t.completed_count = 1 then f.Supervisor.f_duration
     else (0.7 *. t.avg_duration) +. (0.3 *. f.Supervisor.f_duration))

let rec dispatch t now =
  if Supervisor.has_capacity t.sup then
    match Jobq.pop_ready t.queue ~now with
    | Jobq.Empty -> ()
    | Jobq.Expired e ->
        journal t (Ev_shed { id = e.Jobq.e_id; at = now; code = "deadline" });
        (match Hashtbl.find_opt t.jobs e.Jobq.e_id with
        | Some ji -> ji.ji_state <- Shed "deadline"
        | None -> ());
        dispatch t now
    | Jobq.Ready e ->
        let id = e.Jobq.e_id in
        (match Hashtbl.find_opt t.jobs id with
        | None -> ()
        | Some ji ->
            journal t (Ev_started { id; at = now });
            ji.ji_state <- Running;
            Supervisor.start t.sup ~now ~id ~deadline:e.Jobq.e_deadline
              ji.ji_spec);
        dispatch t now

let step t =
  let now = Budget.Clock.now () in
  List.iter (record_finished t now) (Supervisor.poll t.sup ~now);
  (* Draining still dispatches: drained means "finish what was durably
     admitted, accept nothing new". *)
  dispatch t now;
  Supervisor.next_kill_deadline t.sup

let wait_fds t = Supervisor.fds t.sup

let idle t = Jobq.is_empty t.queue && Supervisor.running_count t.sup = 0

let drain t = t.draining <- true

let drain_finish t =
  drain t;
  let rec go () =
    let _ = step t in
    if not (idle t) then begin
      let now = Budget.Clock.now () in
      (match Supervisor.drain_await t.sup ~now with
      | [] -> ()
      | finished -> List.iter (record_finished t now) finished);
      if not (idle t) then go ()
    end
  in
  go ()

let close t =
  Supervisor.abort_all t.sup;
  Wal.close t.wal

(* {2 Introspection} *)

let status t id =
  Option.map (fun ji -> ji.ji_state) (Hashtbl.find_opt t.jobs id)

let job_ids t = List.rev t.submission_order

type stats = {
  queued : int;
  running : int;
  done_ : int;
  failed : int;
  shed : int;
  draining : bool;
}

let stats t =
  let queued = ref 0 and running = ref 0 and done_ = ref 0 in
  let failed = ref 0 and shed = ref 0 in
  List.iter
    (fun id ->
      match (Hashtbl.find t.jobs id).ji_state with
      | Queued -> incr queued
      | Running -> incr running
      | Done _ -> incr done_
      | Failed _ -> incr failed
      | Shed _ -> incr shed)
    t.submission_order;
  {
    queued = !queued;
    running = !running;
    done_ = !done_;
    failed = !failed;
    shed = !shed;
    draining = t.draining;
  }
