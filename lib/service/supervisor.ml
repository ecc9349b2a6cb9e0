(* Supervised pool of Isolate workers.

   One worker process per running job, capped at the pool size. The
   supervisor never blocks: [poll] reaps whatever finished (Isolate
   kills anything past its deadline and reaps on every path, so the
   pool cannot leak zombies), and [fds]/[next_kill_deadline] give the
   daemon's select loop exactly what it needs to sleep until something
   can happen.

   The worker computes [Job.execute spec] — itself a [result] — under
   an unlimited outer guard, so the marshaled payload is
   [((string, failure) result, failure) result]; [flatten] collapses
   the two layers (an outer [Error] means the worker infrastructure
   failed: killed, OOM, undecodable). *)

type outcome = (string, Guard.failure) result

type running = {
  r_id : string;
  r_class : string;
  r_started_at : float;
  r_worker : outcome Isolate.worker;
}

type t = {
  s_pool : int;
  s_grace : float;
  s_retry : (int * float) option;
  mutable s_running : running list;  (* newest first; order is not API *)
}

let create ?(pool_size = 4) ?(grace = 1.0) ?retry () =
  if pool_size < 1 then invalid_arg "Supervisor.create: pool_size must be >= 1";
  if grace < 0.0 then invalid_arg "Supervisor.create: grace must be >= 0";
  { s_pool = pool_size; s_grace = grace; s_retry = retry; s_running = [] }

let pool_size t = t.s_pool
let running_count t = List.length t.s_running
let has_capacity t = running_count t < t.s_pool
let running_ids t = List.rev_map (fun r -> r.r_id) t.s_running

let start t ~now ~id ~deadline spec =
  if not (has_capacity t) then failwith "Supervisor.start: pool is full";
  (* The admission deadline caps the worker's wall clock: Isolate
     SIGKILLs [grace] past it. The job's own budget (from the spec) is
     built inside the worker by [Job.execute]. *)
  let timeout = Option.map (fun d -> Float.max 0.0 (d -. now)) deadline in
  let retry = t.s_retry in
  let jitter_seed = Model_io.crc32 id in
  let worker =
    Isolate.spawn ~budget:Budget.unlimited ?timeout ~grace:t.s_grace (fun () ->
        Job.execute ?retry ~jitter_seed spec)
  in
  t.s_running <-
    { r_id = id; r_class = Job.job_class spec; r_started_at = now;
      r_worker = worker }
    :: t.s_running

let flatten = function
  | Ok (Ok _ as ok) -> ok
  | Ok (Error _ as err) -> err
  | Error _ as err -> err

type finished = {
  f_id : string;
  f_class : string;
  f_duration : float;
  f_outcome : outcome;
}

let poll t ~now =
  (* Reap the whole sweep even when one worker blows up mid-scan. An
     exception from [Isolate.poll] (whose abandon path has already
     killed and reaped that worker) used to abort the partition,
     leaving every other worker that died in the same select wake-up
     unreaped and its slot occupied — under a burst of simultaneous
     deaths the pool could wedge below capacity. Converting the
     exception into a finished record keeps the accounting exact: all
     slots freed by the burst are reclaimed in this single call,
     before the caller dispatches anything new. *)
  let finished, still =
    List.partition_map
      (fun r ->
        match Isolate.poll r.r_worker with
        | Some res -> Either.Left (r, res)
        | None -> Either.Right r
        | exception e ->
            Either.Left
              ( r,
                Error
                  (Guard.Solver_error
                     (Printf.sprintf "supervisor: reap failed: %s"
                        (Printexc.to_string e))) ))
      t.s_running
  in
  t.s_running <- still;
  List.rev_map
    (fun (r, res) ->
      {
        f_id = r.r_id;
        f_class = r.r_class;
        f_duration = Float.max 0.0 (now -. r.r_started_at);
        f_outcome = flatten res;
      })
    finished

let fds t =
  List.filter_map (fun r -> Isolate.poll_fd r.r_worker) t.s_running

let next_kill_deadline t =
  List.fold_left
    (fun acc r ->
      match Isolate.kill_deadline r.r_worker, acc with
      | None, acc -> acc
      | Some d, None -> Some d
      | Some d, Some a -> Some (Float.min d a))
    None t.s_running

let drain_await t ~now =
  let finished =
    List.rev_map
      (fun r ->
        {
          f_id = r.r_id;
          f_class = r.r_class;
          f_duration = Float.max 0.0 (now -. r.r_started_at);
          f_outcome = flatten (Isolate.await r.r_worker);
        })
      t.s_running
  in
  t.s_running <- [];
  finished

let abort_all t =
  List.iter
    (fun r ->
      Isolate.force_kill r.r_worker;
      ignore (Isolate.await r.r_worker))
    t.s_running;
  t.s_running <- []
