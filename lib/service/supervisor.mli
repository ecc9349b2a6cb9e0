(** A supervised pool of {!Isolate} workers, one process per running
    job.

    The supervisor never blocks in normal operation: {!start} forks,
    {!poll} reaps whatever has finished, and {!fds} plus
    {!next_kill_deadline} tell a select loop when to wake. Workers past
    their deadline are SIGKILLed by the underlying {!Isolate} machinery
    and every exit path reaps the child, so the pool cannot accumulate
    zombies. *)

type outcome = (string, Guard.failure) result
(** What a job produces: a one-line summary or a structured failure
    (worker infrastructure failures — kill, OOM, undecodable result —
    are folded into the same type). *)

type t

val create : ?pool_size:int -> ?grace:float -> ?retry:int * float -> unit -> t
(** [pool_size] concurrent workers (default 4); [grace] seconds past a
    job's deadline before SIGKILL (default 1.0); [retry] is passed to
    {!Job.execute} as its in-worker retry policy.
    @raise Invalid_argument on a non-positive pool or negative grace. *)

val pool_size : t -> int
val running_count : t -> int
val has_capacity : t -> bool
val running_ids : t -> string list

val start : t -> now:float -> id:string -> deadline:float option ->
  Job.spec -> unit
(** Fork a worker for the job. [deadline] (absolute) caps the worker's
    wall clock; the job's own budget comes from its spec. The worker's
    backoff jitter is seeded from [Model_io.crc32 id].
    @raise Failure when the pool is full — callers gate on
    {!has_capacity}. *)

type finished = {
  f_id : string;
  f_class : string;
  f_duration : float;
  f_outcome : outcome;
}

val poll : t -> now:float -> finished list
(** Reap every worker that has finished (killing any past its
    deadline), without blocking. The sweep is total: even if reaping
    one worker fails with an exception, the worker is reported as
    finished with a structured error and the rest of the sweep still
    runs, so every slot freed by a burst of simultaneous deaths is
    reclaimed in this one call. *)

val fds : t -> Unix.file_descr list
(** The running workers' result pipes — what the daemon selects on. *)

val next_kill_deadline : t -> float option
(** Earliest absolute time at which some worker becomes killable — an
    upper bound for the select timeout. *)

val drain_await : t -> now:float -> finished list
(** Block until every running worker finishes (each under its own
    deadline), reaping all — the SIGTERM drain path. *)

val abort_all : t -> unit
(** SIGKILL and reap every running worker — the fast-shutdown path.
    Their jobs stay incomplete (journaled as started, not completed),
    so WAL recovery re-runs them. *)
