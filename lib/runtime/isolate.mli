(** Hard, non-cooperative isolation: run a solver thunk in a forked
    worker process with a wall-clock kill.

    {!Guard.run} keeps its promises only while the solver cooperates —
    ticks in every loop, bounded native stack, survivable allocation.
    [Isolate] holds them against a hostile computation too: the worker
    is SIGKILLed once the deadline plus a grace period passes, and
    every abnormal exit (signal, OOM kill, stack-overflow crash,
    marshal failure) comes back as a structured {!Guard.failure}.

    Two interfaces share the same worker machinery: the one-shot
    blocking {!run}, and the {!spawn}/{!poll}/{!await} triple that
    supervisor pools use to multiplex many workers over one [select]
    loop without blocking on any single one.

    The price is a [fork] and a [Marshal] round-trip per call (see the
    [runtime/isolate_overhead] bench), plus the fork-safety caveats:
    the worker inherits a copy of the parent's state, and its result
    must be marshalable — plain data and closures are fine, custom
    blocks (channels, file descriptors) are not. Unix only.

    Reaping: every worker is [waitpid]ed exactly once (EINTR retried)
    on every path out of {!await}/{!poll}/{!run} — including
    kill-by-deadline, undecodable results, and unexpected drain
    errors — so repeated runs cannot accumulate zombie children. *)

val run :
  ?budget:Budget.t ->
  ?timeout:float ->
  ?grace:float ->
  (unit -> 'a) ->
  ('a, Guard.failure) result
(** [run ?budget ?timeout ?grace f] forks, runs [Guard.run budget f] in
    the worker (default budget: the ambient one), and reads the
    marshaled result back. The kill deadline is [timeout] seconds from
    now when given, else the budget's remaining time, else none; the
    worker is SIGKILLed [grace] (default 1.0) seconds after it passes,
    which maps to [Error Timeout]. A worker the kernel kills instead
    (OOM, SIGSEGV from native-stack exhaustion) maps to
    [Error (Limit_exceeded _)].
    @raise Invalid_argument on a negative [timeout] or [grace]. *)

val runner : ?grace:float -> unit -> Guard.runner
(** [runner ()] packages {!run} as a {!Guard.runner}, for call sites
    (the degradation ladder, [cqsep --isolate]) that choose their
    execution strategy at run time. *)

(** {2 Non-blocking workers}

    A supervisor pool spawns several workers, [select]s over their
    {!poll_fd}s, and {!poll}s whichever become readable. *)

type 'a worker
(** A forked worker computing an ['a]. Single-owner and not
    thread-safe, like the rest of the runtime. *)

val spawn :
  ?budget:Budget.t -> ?timeout:float -> ?grace:float -> (unit -> 'a) ->
  'a worker
(** [spawn ?budget ?timeout ?grace f] forks a worker exactly as {!run}
    does, but returns immediately. The caller must eventually {!await}
    (or {!poll} to completion) the worker, or it leaks a child process.
    @raise Invalid_argument on a negative [timeout] or [grace]. *)

val poll_fd : _ worker -> Unix.file_descr option
(** The read end of the worker's result pipe — the fd to [select] on.
    [None] once the worker has finished and the fd is closed. *)

val kill_deadline : _ worker -> float option
(** The absolute {!Budget.Clock} time past which {!poll}/{!await} will
    SIGKILL the worker; [None] when it may run forever. Use it to bound
    the [select] timeout of a multiplexing loop. *)

val poll : 'a worker -> ('a, Guard.failure) result option
(** [poll w] pumps any bytes the worker has written without blocking.
    [Some result] once the worker has finished (the result is memoized;
    further polls return the same value), [None] while it is still
    running. A worker past its {!kill_deadline} is SIGKILLed here;
    shortly after, a subsequent poll observes EOF and returns
    [Some (Error Timeout)]. *)

val await : 'a worker -> ('a, Guard.failure) result
(** [await w] blocks until the worker finishes (killing it past its
    deadline, as {!run} does) and returns its result. Idempotent after
    completion. *)

val force_kill : _ worker -> unit
(** SIGKILL the worker now. The next {!poll}/{!await} reaps it and
    returns [Error Timeout]. No-op on a finished worker. *)

val at_fork_child : (unit -> unit) -> unit
(** Register a hook to run inside every freshly forked worker, before
    it computes. Daemons use this to close inherited process-wide fds
    (the listening socket, journals) in workers — otherwise a worker
    that outlives a crashed parent holds them open and, e.g., keeps
    the socket answering connects with nobody accepting. Hooks must
    not raise (failures are swallowed); registrations are for the
    process lifetime (reset via {!Runtime_state}).

    Independent of any registered hooks, every fresh worker calls
    {!Runtime_state.reset_caches} first: inherited memo tables are
    dropped before the worker computes, so stale or corrupted parent
    cache state cannot change a child's verdict, while
    configuration-kind state (e.g. the numeric-tier selector) keeps
    its value. *)
