(* Hard isolation: run a solver thunk in a forked worker process.

   Cooperative budgets only work when the solver ticks; a loop that
   forgets to, a native-stack overflow, or an allocation storm the GC
   cannot satisfy still takes the calling process down. Forking buys a
   hard guarantee: the parent SIGKILLs the worker once the deadline
   plus a grace period passes, and every abnormal exit — signal, OOM
   kill, marshal failure — maps onto a structured {!Guard.failure}.

   Protocol: the worker runs [Guard.run budget f], marshals the whole
   [('a, failure) result] (with [Marshal.Closures], safe because both
   ends are the same process image) onto a pipe, and [_exit]s — never
   [exit], which would run [at_exit] handlers and flush the parent's
   buffered output a second time. The parent drains the pipe (either
   blocking under a [select] deadline, or incrementally through the
   non-blocking {!poll} used by supervisor pools) and decodes.

   Reaping discipline: a worker is [waitpid]ed exactly once, with
   EINTR retried, on *every* path out of {!await}/{!poll} — normal
   completion, kill-by-deadline, undecodable results, and even an
   unexpected exception while draining (the [finalize]/[abandon] pair
   below). Repeated runs therefore cannot accumulate zombies. *)

(* Worker exit codes past the normal protocol. *)
let exit_ok = 0
let exit_report_failed = 2
let exit_oom_reporting = 3

let write_all fd bytes =
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then begin
      let written =
        try Unix.write fd bytes off (n - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + written)
    end
  in
  go 0

let rec waitpid_no_eintr pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_no_eintr pid

let child_main ~budget ~fd f =
  let result =
    match Guard.run budget f with
    | r -> r
    | exception e ->
        (* Guard.run propagates unknown exceptions; a worker must not
           die with an unstructured error, so fold them here. *)
        Error
          (Guard.Solver_error ("isolate: worker raised " ^ Printexc.to_string e))
  in
  match Marshal.to_bytes result [ Marshal.Closures ] with
  | bytes -> ( try write_all fd bytes; Unix.close fd; exit_ok with _ -> exit_report_failed)
  | exception Out_of_memory -> exit_oom_reporting
  | exception _ -> exit_report_failed

let default_grace = 1.0

(* Hooks run in the freshly forked child, before the worker computes.
   A daemon registers closing its listening socket here: otherwise a
   worker that outlives a crashed parent keeps the socket open, and
   the restarted daemon's liveness probe concludes a daemon is still
   running. Hook failures are swallowed — they must not turn into
   bogus worker results. *)
let child_hooks : (unit -> unit) list ref = ref []
let at_fork_child f = child_hooks := f :: !child_hooks

let () =
  Runtime_state.register ~name:"isolate.child_hooks" ~kind:`Config (fun () ->
      child_hooks := [])

(* Every fresh worker first drops the caches it inherited from the
   parent image: a chaos-poisoned or merely stale memo table
   (cq_sep.chain_cache, struct_iso.intern, ...) must never leak into a
   worker's result. Configuration-kind state (the numeric-tier selector,
   this hook list itself) survives — the child keeps the semantics the
   operator chose. *)
let run_child_hooks () =
  Runtime_state.reset_caches ();
  List.iter (fun f -> try f () with _ -> ()) !child_hooks

type 'a worker = {
  w_pid : int;
  mutable w_fd : Unix.file_descr option;  (* read end; None once closed *)
  w_buf : Buffer.t;
  w_chunk : Bytes.t;
  w_kill_deadline : float option;
  mutable w_killed : bool;
  mutable w_result : ('a, Guard.failure) result option;  (* memoized *)
}

let spawn (type a) ?budget ?timeout ?(grace = default_grace) (f : unit -> a) :
    a worker =
  if grace < 0.0 then invalid_arg "Isolate.spawn: negative grace";
  (match timeout with
  | Some s when s < 0.0 -> invalid_arg "Isolate.spawn: negative timeout"
  | _ -> ());
  let budget = match budget with Some b -> b | None -> Budget.installed () in
  let kill_after =
    match timeout with Some s -> Some s | None -> Budget.remaining_time budget
  in
  let read_fd, write_fd = Unix.pipe () in
  (* Anything sitting in the parent's buffers would be flushed by both
     processes otherwise. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* The worker: compute, report, vanish. *)
      run_child_hooks ();
      let code =
        match Unix.close read_fd with
        | () -> child_main ~budget ~fd:write_fd f
        | exception _ -> exit_report_failed
      in
      Unix._exit code
  | pid ->
      Unix.close write_fd;
      {
        w_pid = pid;
        w_fd = Some read_fd;
        w_buf = Buffer.create 4096;
        w_chunk = Bytes.create 65536;
        w_kill_deadline =
          Option.map (fun s -> Budget.Clock.now () +. s +. grace) kill_after;
        w_killed = false;
        w_result = None;
      }

let poll_fd w = w.w_fd
let kill_deadline w = w.w_kill_deadline

let force_kill w =
  if w.w_result = None && not w.w_killed then begin
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    w.w_killed <- true
  end

let close_fd w =
  match w.w_fd with
  | None -> ()
  | Some fd ->
      w.w_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* EOF reached (or the worker abandoned): reap and decode. Reaping
   happens before any decoding, so an undecodable result can never
   leave a zombie behind. *)
let finalize (type a) (w : a worker) : (a, Guard.failure) result =
  close_fd w;
  let status = waitpid_no_eintr w.w_pid in
  let result : (a, Guard.failure) result =
    if w.w_killed then Error Guard.Timeout
    else begin
      match status with
      | Unix.WEXITED code when code = exit_ok -> begin
          match
            (Marshal.from_bytes (Buffer.to_bytes w.w_buf) 0
              : (a, Guard.failure) result)
          with
          | result -> result
          | exception _ ->
              Error (Guard.Solver_error "isolate: undecodable worker result")
        end
      | Unix.WEXITED code when code = exit_oom_reporting ->
          Error (Guard.Limit_exceeded "isolate: worker out of memory")
      | Unix.WEXITED code ->
          Error
            (Guard.Solver_error
               (Printf.sprintf "isolate: worker exited with code %d" code))
      | Unix.WSIGNALED signal when signal = Sys.sigkill ->
          (* Not our kill — most likely the kernel's OOM killer. *)
          Error
            (Guard.Limit_exceeded
               "isolate: worker killed (out of memory, most likely)")
      | Unix.WSIGNALED signal when signal = Sys.sigsegv ->
          Error
            (Guard.Limit_exceeded
               "isolate: worker crashed (native stack exhaustion, most \
                likely)")
      | Unix.WSIGNALED signal ->
          Error
            (Guard.Solver_error
               (Printf.sprintf "isolate: worker killed by signal %d" signal))
      | Unix.WSTOPPED _ ->
          Error (Guard.Solver_error "isolate: worker stopped unexpectedly")
    end
  in
  w.w_result <- Some result;
  result

(* Last-resort cleanup when draining fails with an unexpected
   exception: kill the worker and reap it before re-raising, so no
   path — not even a broken select/read — leaks a zombie. *)
let abandon w =
  force_kill w;
  if w.w_result = None then ignore (finalize w)

let read_step w fd =
  match Unix.read fd w.w_chunk 0 (Bytes.length w.w_chunk) with
  | 0 -> `Eof
  | n ->
      Buffer.add_subbytes w.w_buf w.w_chunk 0 n;
      `More
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More

let poll (type a) (w : a worker) : (a, Guard.failure) result option =
  match w.w_result with
  | Some r -> Some r
  | None -> begin
      match w.w_fd with
      | None -> Some (finalize w)
      | Some fd ->
          (match w.w_kill_deadline with
          | Some d when (not w.w_killed) && Budget.Clock.now () >= d ->
              force_kill w
          | _ -> ());
          let rec pump () =
            match Unix.select [ fd ] [] [] 0.0 with
            | [], _, _ -> None
            | _ :: _, _, _ -> begin
                match read_step w fd with
                | `Eof -> Some (finalize w)
                | `More -> pump ()
              end
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
          in
          (match pump () with
          | r -> r
          | exception e -> abandon w; raise e)
    end

let await (type a) (w : a worker) : (a, Guard.failure) result =
  match w.w_result with
  | Some r -> r
  | None -> begin
      match w.w_fd with
      | None -> finalize w
      | Some fd ->
          (* Drain the pipe to EOF. Past the kill deadline, SIGKILL the
             worker and keep draining briefly — death closes the pipe's
             write end, so EOF arrives promptly. *)
          let rec drain () =
            let wait =
              if w.w_killed then 1.0
              else
                match w.w_kill_deadline with
                | None -> -1.0 (* block until the worker reports *)
                | Some d -> Float.max 0.0 (d -. Budget.Clock.now ())
            in
            match Unix.select [ fd ] [] [] wait with
            | [], _, _ -> if not w.w_killed then begin force_kill w; drain () end
            | _ :: _, _, _ -> begin
                match read_step w fd with `Eof -> () | `More -> drain ()
              end
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          in
          (match drain () with
          | () -> finalize w
          | exception e -> abandon w; raise e)
    end

let run ?budget ?timeout ?grace f = await (spawn ?budget ?timeout ?grace f)

let runner ?grace () =
  { Guard.run = (fun budget f -> run ~budget ?grace f) }
