(* cqserved — the crash-safe solver job daemon.

   A single-threaded select loop over one Unix-domain listening socket
   and the worker pool's result pipes, multiplexing the {!Service}
   engine: admissions journal to the WAL before they are acknowledged,
   jobs run in supervised {!Isolate} workers, SIGTERM drains (finish
   admitted work, accept nothing new) and SIGKILL loses nothing that
   was acknowledged — on restart the WAL replays.

   Protocol: one request line per connection, one reply line back.
     SUBMIT [deadline=REL] key=value...   -> OK <id> | REJECT <code> <why>
     STATUS <id>                          -> OK <state> | UNKNOWN <id>
     STATS                                -> OK queued=... running=... ...
     LIST                                 -> OK <id> <id> ...
     DRAIN                                -> OK draining
     PING                                 -> OK pong
   With --models DIR the serving tier is enabled and adds:
     CLASSIFY db=PATH [entities=A,B,..]   -> OK v<N> hits=H cold=C +a -b ..
                                           | REJECT <code> <why> | ERR <why>
     PUBLISH model=PATH                   -> OK v<N> | REJECT invalid <why>
     MODELS                               -> OK current=v<N> versions=v1,v2..
     ROLLBACK                             -> OK v<N> | REJECT invalid <why>
   Anything else                          -> ERR <why>
   The spec key=value syntax is {!Job.spec_of_wire}'s (values
   percent-escaped); [deadline] is relative seconds from receipt;
   CLASSIFY replies list verdicts in request order, [+e] positive,
   [-e] negative, entity names percent-escaped.

   Exit codes: 0 clean shutdown (drained), 1 startup error (socket or
   WAL unusable, stale daemon already running), 5 internal error. *)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- one-line socket I/O ------------------------------------------- *)

let max_line = 65536
let client_io_timeout = 5.0

(* Read up to a newline, bounded in bytes and wall clock — a stalled or
   malicious client must not wedge the daemon. *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let deadline = Budget.Clock.now () +. client_io_timeout in
  let rec go () =
    if Buffer.length buf > max_line then Error "request line too long"
    else begin
      let wait = deadline -. Budget.Clock.now () in
      if wait <= 0.0 then Error "client timed out"
      else
        match Unix.select [ fd ] [] [] wait with
        | [], _, _ -> Error "client timed out"
        | _, _, _ -> begin
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                if Buffer.length buf = 0 then Error "empty request"
                else Ok (Buffer.contents buf)
            | n -> begin
                match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
                | Some i ->
                    Buffer.add_subbytes buf chunk 0 i;
                    Ok (Buffer.contents buf)
                | None ->
                    Buffer.add_subbytes buf chunk 0 n;
                    go ()
              end
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    end
  in
  go ()

let write_reply fd line =
  let s = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length s in
  let rec go off =
    if off < n then
      match Unix.write fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
  in
  go 0

(* --- request handling ----------------------------------------------- *)

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let handle_submit svc rest =
  let submit deadline spec_line =
    match Job.spec_of_wire spec_line with
    | Error msg -> "REJECT invalid " ^ msg
    | Ok spec -> begin
        match Service.submit svc ?deadline spec with
        | Ok id -> "OK " ^ id
        | Error reject ->
            Printf.sprintf "REJECT %s %s" (Jobq.reject_code reject)
              (Jobq.reject_to_string reject)
      end
  in
  let prefix = "deadline=" in
  let tok, rest' = split_command rest in
  if
    String.length tok > String.length prefix
    && String.sub tok 0 (String.length prefix) = prefix
  then begin
    let v = String.sub tok (String.length prefix)
        (String.length tok - String.length prefix)
    in
    match float_of_string_opt v with
    | Some r when r >= 0.0 -> submit (Some (Budget.Clock.now () +. r)) rest'
    | _ -> "REJECT invalid bad deadline: " ^ v
  end
  else submit None rest

(* --- serving-tier requests ------------------------------------------- *)

(* [key=value] fields of a serving request, values percent-escaped
   with the same codec the job wire format uses. *)
let parse_fields rest =
  let toks =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' rest)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: toks -> (
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" tok)
        | Some i -> (
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            match Job.dec_value v with
            | v -> go ((k, v) :: acc) toks
            | exception Failure _ ->
                Error (Printf.sprintf "bad percent escape in %s" k)))
  in
  go [] toks

let reject_reply reject =
  Printf.sprintf "REJECT %s %s" (Jobq.reject_code reject)
    (Jobq.reject_to_string reject)

let handle_classify sv rest =
  match parse_fields rest with
  | Error why -> "REJECT invalid " ^ why
  | Ok fields -> (
      match List.assoc_opt "db" fields with
      | None -> "REJECT invalid CLASSIFY needs db=PATH"
      | Some path -> (
          match Serve.load_db sv path with
          | Error why -> "ERR " ^ why
          | Ok (db_key, db) -> (
              let all = Db.entities db in
              let requested =
                match List.assoc_opt "entities" fields with
                | None -> Ok all
                | Some names ->
                    let names =
                      List.filter
                        (fun s -> s <> "")
                        (String.split_on_char ',' names)
                    in
                    (* One table per request; the first entity with a
                       given name wins, as in a list lookup. *)
                    let by_name = Hashtbl.create (List.length all) in
                    List.iter
                      (fun e ->
                        let n = Elem.to_string e in
                        if not (Hashtbl.mem by_name n) then
                          Hashtbl.add by_name n e)
                      all;
                    let rec resolve acc = function
                      | [] -> Ok (List.rev acc)
                      | n :: ns -> (
                          match Hashtbl.find_opt by_name n with
                          | Some e -> resolve (e :: acc) ns
                          | None ->
                              Error
                                (Printf.sprintf "unknown entity %S in %s" n
                                   path))
                    in
                    resolve [] names
              in
              match requested with
              | Error why -> "REJECT invalid " ^ why
              | Ok entities -> (
                  match Serve.classify sv ~db_key ~db entities with
                  | Serve.Shed reject -> reject_reply reject
                  | Serve.Failed f -> "ERR eval: " ^ Guard.failure_to_string f
                  | Serve.Served s ->
                      let verdicts =
                        List.map
                          (fun (e, lab) ->
                            let sign =
                              match lab with
                              | Labeling.Pos -> "+"
                              | Labeling.Neg -> "-"
                            in
                            sign ^ Job.enc_value (Elem.to_string e))
                          s.Serve.sv_results
                      in
                      String.concat " "
                        (Printf.sprintf "OK v%d hits=%d cold=%d"
                           s.Serve.sv_version s.Serve.sv_hits s.Serve.sv_cold
                        :: verdicts)))))

let handle_publish sv rest =
  match parse_fields rest with
  | Error why -> "REJECT invalid " ^ why
  | Ok fields -> (
      match List.assoc_opt "model" fields with
      | None -> "REJECT invalid PUBLISH needs model=PATH"
      | Some path -> (
          match Model_io.load path with
          | exception Model_io.Parse_error why ->
              "REJECT invalid model file rejected: " ^ why
          | exception Sys_error why -> "ERR " ^ why
          | m -> (
              match Serve.publish sv m with
              | v -> Printf.sprintf "OK v%d" v
              | exception Sys_error why -> "ERR publish failed: " ^ why
              | exception Unix.Unix_error (e, _, _) ->
                  "ERR publish failed: " ^ Unix.error_message e)))

let handle_models sv =
  let current, versions = Serve.models sv in
  let cur =
    match current with Some v -> Printf.sprintf "v%d" v | None -> "none"
  in
  Printf.sprintf "OK current=%s versions=%s" cur
    (String.concat "," (List.map (Printf.sprintf "v%d") versions))

let handle_rollback sv =
  match Serve.rollback sv with
  | Ok v -> Printf.sprintf "OK v%d" v
  | Error why -> "REJECT invalid " ^ why
  | exception Sys_error why -> "ERR rollback failed: " ^ why
  | exception Unix.Unix_error (e, _, _) ->
      "ERR rollback failed: " ^ Unix.error_message e

let serve_stats sv =
  let s = Serve.stats sv in
  let cur =
    match s.Serve.st_version with
    | Some v -> Printf.sprintf "v%d" v
    | None -> "none"
  in
  Printf.sprintf
    " model=%s eval_batches=%d eval_entities=%d eval_hits=%d eval_cold=%d \
     eval_shed_overload=%d eval_shed_breaker=%d eval_failures=%d publishes=%d \
     rollbacks=%d"
    cur s.Serve.st_served_batches s.Serve.st_served_entities
    s.Serve.st_cache.Eval_cache.hits s.Serve.st_cold_evals
    s.Serve.st_shed_overload s.Serve.st_shed_breaker s.Serve.st_eval_failures
    s.Serve.st_publishes s.Serve.st_rollbacks

let with_serving serve_opt k =
  match serve_opt with
  | Some sv -> k sv
  | None -> "ERR serving disabled (start cqserved with --models DIR)"

let handle_request svc ~serve_opt ~request_drain line =
  let cmd, rest = split_command (String.trim line) in
  match cmd with
  | "PING" -> "OK pong"
  | "SUBMIT" -> handle_submit svc rest
  | "STATUS" -> begin
      if rest = "" then "ERR STATUS needs a job id"
      else
        match Service.status svc rest with
        | Some st -> "OK " ^ Service.state_to_string st
        | None -> "UNKNOWN " ^ rest
    end
  | "STATS" ->
      let s = Service.stats svc in
      Printf.sprintf
        "OK queued=%d running=%d done=%d failed=%d shed=%d draining=%b%s"
        s.Service.queued s.Service.running s.Service.done_ s.Service.failed
        s.Service.shed s.Service.draining
        (match serve_opt with Some sv -> serve_stats sv | None -> "")
  | "LIST" -> "OK " ^ String.concat " " (Service.job_ids svc)
  | "CLASSIFY" -> with_serving serve_opt (fun sv -> handle_classify sv rest)
  | "PUBLISH" -> with_serving serve_opt (fun sv -> handle_publish sv rest)
  | "MODELS" -> with_serving serve_opt handle_models
  | "ROLLBACK" -> with_serving serve_opt handle_rollback
  | "DRAIN" ->
      request_drain ();
      "OK draining"
  | "" -> "ERR empty request"
  | other -> "ERR unknown command: " ^ other

let serve_client svc ~serve_opt ~request_drain fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match read_request fd with
      | Error why -> write_reply fd ("ERR " ^ why)
      | Ok line ->
          write_reply fd (handle_request svc ~serve_opt ~request_drain line))

(* --- socket lifecycle ----------------------------------------------- *)

(* Unix-domain socket paths are capped (108 bytes on Linux) — fail
   early with a clear message rather than a confusing bind error. *)
let check_socket_path path =
  if String.length path > 100 then begin
    log "cqserved: socket path too long (%d bytes, max 100): %s"
      (String.length path) path;
    exit 1
  end

(* A stale socket file from a SIGKILLed daemon must not block restart;
   a live daemon must. A bare connect is not enough of a probe: an
   orphaned worker that inherited the old daemon's listening fd still
   accepts connections into a queue nobody drains. Demand an actual
   PING reply within a short deadline; silence means stale. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | exception Unix.Unix_error _ -> false
          | () -> begin
              match write_reply probe "PING" with
              | exception Unix.Unix_error _ -> false
              | () -> begin
                  match Unix.select [ probe ] [] [] 1.0 with
                  | [], _, _ -> false
                  | _ -> begin
                      match Unix.read probe (Bytes.create 16) 0 16 with
                      | 0 -> false
                      | _ -> true
                      | exception Unix.Unix_error _ -> false
                    end
                  | exception Unix.Unix_error _ -> false
                end
            end)
    in
    if live then begin
      log "cqserved: another daemon is already listening on %s" path;
      exit 1
    end
    else (try Unix.unlink path with Unix.Unix_error _ -> ())
  end

let listen_on path =
  check_socket_path path;
  claim_socket path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64
  with
  | () -> fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      log "cqserved: cannot listen on %s: %s" path (Unix.error_message err);
      exit 1

(* --- the event loop -------------------------------------------------- *)

let stop_requested = ref false

let serve cfg ~socket_path ~models_dir ~serve_cfg =
  let svc =
    match Service.start cfg with
    | svc -> svc
    | exception Unix.Unix_error (err, _, _) ->
        log "cqserved: cannot open WAL %s: %s" cfg.Service.wal_path
          (Unix.error_message err);
        exit 1
  in
  let serve_opt =
    match models_dir with
    | None -> None
    | Some dir -> (
        match Model_store.open_ ~dir with
        | store ->
            let sv = Serve.create ~config:serve_cfg store in
            log "cqserved: serving models from %s (%d versions, current %s)"
              dir
              (List.length (Model_store.list store))
              (match Model_store.current_version store with
              | Some v -> Printf.sprintf "v%d" v
              | None -> "none");
            Some sv
        | exception Unix.Unix_error (err, _, _) ->
            log "cqserved: cannot open model store %s: %s" dir
              (Unix.error_message err);
            exit 1)
  in
  let listen_fd = listen_on socket_path in
  (* Workers must not hold the listener open past a daemon crash. *)
  Isolate.at_fork_child (fun () ->
      try Unix.close listen_fd with Unix.Unix_error _ -> ());
  let rec_ = Service.recovery svc in
  log
    "cqserved: listening on %s (wal %s: %d events replayed, %d completed \
     kept, %d requeued, %d shed, %d damaged bytes dropped)"
    socket_path cfg.Service.wal_path rec_.Service.replayed_events
    rec_.Service.recovered_completed rec_.Service.requeued
    rec_.Service.shed_on_recovery rec_.Service.dropped_bytes;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_stop _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_stop);
  let draining = ref false in
  let request_drain () =
    if not !draining then begin
      draining := true;
      Service.drain svc;
      log "cqserved: draining"
    end
  in
  let rec loop () =
    if !stop_requested then request_drain ();
    let kill_hint = Service.step svc in
    if !draining && Service.idle svc then ()
    else begin
      let now = Budget.Clock.now () in
      (* Short cap so signal flags and kill deadlines are honored
         promptly even when nothing is readable. *)
      let timeout =
        match kill_hint with
        | Some d -> Float.max 0.0 (Float.min 0.5 (d -. now))
        | None -> 0.5
      in
      let fds = listen_fd :: Service.wait_fds svc in
      (match Unix.select fds [] [] timeout with
      | ready, _, _ ->
          if List.mem listen_fd ready then begin
            match Unix.accept listen_fd with
            | fd, _ -> serve_client svc ~serve_opt ~request_drain fd
            | exception Unix.Unix_error (_, _, _) -> ()
          end
          (* Worker pipes that woke us are pumped by the next step. *)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Service.close svc;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  log "cqserved: drained, bye";
  0

(* --- CLI -------------------------------------------------------------- *)

open Cmdliner

let duration_of_string s0 =
  let s = String.trim s0 in
  let bad () =
    Error
      (`Msg
        (Printf.sprintf "bad duration %S (expected e.g. 250ms, 2s, or plain seconds)" s0))
  in
  let ends_with suffix =
    let ls = String.length s and lx = String.length suffix in
    ls > lx && String.sub s (ls - lx) lx = suffix
  in
  let scaled scale suffix =
    let num = String.sub s 0 (String.length s - String.length suffix) in
    match float_of_string_opt (String.trim num) with
    | Some f when f >= 0.0 -> Ok (f *. scale)
    | _ -> bad ()
  in
  if s = "" then bad ()
  else if ends_with "us" then scaled 1e-6 "us"
  else if ends_with "ms" then scaled 1e-3 "ms"
  else if ends_with "s" then scaled 1.0 "s"
  else
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | _ -> bad ()

let duration_conv =
  Arg.conv (duration_of_string, fun fmt secs -> Format.fprintf fmt "%gs" secs)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on.")

let wal_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "w"; "wal" ] ~docv:"PATH"
        ~doc:
          "Write-ahead log. Replayed (and its torn tail repaired) on \
           startup; first boot and post-crash boot are the same path.")

let pool_arg =
  Arg.(
    value & opt int 4
    & info [ "pool" ] ~docv:"N" ~doc:"Concurrent worker processes (default 4).")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission queue capacity; beyond it submissions are shed \
              with REJECT busy (default 64).")

let timeout_arg =
  Arg.(
    value
    & opt (some duration_conv) None
    & info [ "timeout" ] ~docv:"DURATION"
        ~doc:"Default per-job budget for specs that carry none.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra in-worker attempts per job on resource failures, with \
           budget escalation and jittered exponential backoff (default \
           0).")

let backoff_arg =
  Arg.(
    value
    & opt duration_conv 0.05
    & info [ "backoff" ] ~docv:"DURATION"
        ~doc:"Base retry backoff; doubles per attempt, jittered into \
              [1/2, 1) deterministically per job (default 50ms).")

let breaker_threshold_arg =
  Arg.(
    value & opt int 5
    & info [ "breaker-threshold" ] ~docv:"N"
        ~doc:
          "Consecutive resource failures of a job class before its \
           circuit breaker opens (default 5).")

let breaker_cooldown_arg =
  Arg.(
    value
    & opt duration_conv 30.0
    & info [ "breaker-cooldown" ] ~docv:"DURATION"
        ~doc:"Open-breaker cool-down before a half-open probe (default 30s).")

let grace_arg =
  Arg.(
    value
    & opt duration_conv 1.0
    & info [ "grace" ] ~docv:"DURATION"
        ~doc:"Extra wall clock past a job's deadline before its worker \
              is SIGKILLed (default 1s).")

let models_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "models" ] ~docv:"DIR"
        ~doc:
          "Enable the serving tier: versioned model store directory \
           (created if missing, crash residue repaired on open). Adds \
           the CLASSIFY/PUBLISH/MODELS/ROLLBACK protocol verbs.")

let eval_rate_arg =
  Arg.(
    value
    & opt float Serve.default_config.Serve.eval_rate
    & info [ "eval-rate" ] ~docv:"N"
        ~doc:
          "Cold-entity evaluations admitted per second; beyond it \
           CLASSIFY batches needing cold work are shed with REJECT \
           overload (cache-hit batches always serve). Default 500.")

let eval_burst_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "eval-burst" ] ~docv:"N"
        ~doc:"Token-bucket depth in cold evaluations (default 2x rate).")

let eval_timeout_arg =
  Arg.(
    value
    & opt duration_conv 5.0
    & info [ "eval-timeout" ] ~docv:"DURATION"
        ~doc:"Wall-clock budget per CLASSIFY batch (default 5s).")

let cache_size_arg =
  Arg.(
    value
    & opt int Serve.default_config.Serve.cache_capacity
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"Verdict-cache capacity in entries (default 65536).")

let run socket wal pool queue timeout retries backoff threshold cooldown grace
    models eval_rate eval_burst eval_timeout cache_size =
  let cfg =
    {
      Service.wal_path = wal;
      pool_size = pool;
      queue_capacity = queue;
      default_timeout = timeout;
      breaker_threshold = threshold;
      breaker_cooldown = cooldown;
      retries;
      retry_backoff = backoff;
      grace;
    }
  in
  let serve_cfg =
    {
      Serve.default_config with
      Serve.eval_rate;
      eval_burst =
        (match eval_burst with Some b -> b | None -> 2.0 *. eval_rate);
      eval_timeout = Some eval_timeout;
      cache_capacity = cache_size;
      breaker_threshold = threshold;
    }
  in
  match serve cfg ~socket_path:socket ~models_dir:models ~serve_cfg with
  | code -> code
  | exception Invalid_argument msg ->
      log "cqserved: %s" msg;
      1

let () =
  let doc = "crash-safe solver job daemon (WAL-journaled, supervised workers)" in
  let cmd =
    Cmd.v
      (Cmd.info "cqserved" ~version:"1.0.0" ~doc)
      Term.(
        const run $ socket_arg $ wal_arg $ pool_arg $ queue_arg $ timeout_arg
        $ retries_arg $ backoff_arg $ breaker_threshold_arg
        $ breaker_cooldown_arg $ grace_arg $ models_arg $ eval_rate_arg
        $ eval_burst_arg $ eval_timeout_arg $ cache_size_arg)
  in
  let code =
    try Cmd.eval' ~catch:false cmd
    with e ->
      Printf.eprintf "cqserved: internal error: %s\n" (Printexc.to_string e);
      5
  in
  exit code
