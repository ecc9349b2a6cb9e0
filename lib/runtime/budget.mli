(** Resource budgets: wall-clock deadlines and monotone fuel counters
    for the worst-case-intractable solvers.

    Every decision procedure in this library is exponential in the
    worst case (Table 1 of the paper), so production callers wrap them
    in a budget and a {!Guard.run}. Solvers cooperate by calling
    {!tick} inside their hot loops; the installed budget decides when
    to abort by raising {!Exhausted}, which {!Guard.run} converts into
    a structured [Error]. A tick is a single decrement-and-branch on a
    prepaid credit counter; fuel accounting and clock reads happen in
    an amortized slow path at most once per 1024 ticks. *)

(** Why a budgeted computation stopped. Re-exported as
    {!Guard.failure}. *)
type failure =
  | Timeout  (** the wall-clock deadline passed *)
  | Fuel_exhausted of string
      (** the fuel counter reached zero; the payload names the loop
          that consumed the last unit *)
  | Limit_exceeded of string
      (** a structural limit: out of memory, stack overflow, a killed
          worker *)
  | Solver_error of string
      (** the solver failed for a non-resource reason (invalid
          argument, internal failure) *)

exception Exhausted of failure
(** Raised by {!tick} when the installed budget is spent. Catch it via
    {!Guard.run}, not manually. *)

type t
(** A budget. Mutable: fuel is consumed as the computation runs. *)

(** {2 The clock}

    All deadline arithmetic goes through [Clock], never through
    [Unix.gettimeofday] directly. *)
module Clock : sig
  val now : unit -> float
  (** The current time in seconds, clamped to be monotone: a backwards
      wall-clock jump (an NTP step) freezes [now] at the last observed
      time instead of extending or instantly expiring deadlines. *)

  val set_source : (unit -> float) option -> unit
  (** [set_source (Some f)] replaces the wall clock with [f] — the fake
      clock hook that lets timeout paths be tested without sleeping.
      [set_source None] restores the real clock. Either way the
      monotonicity clamp restarts from the new source's first reading.
      Test-only; not for production call sites. *)

  val sleep : float -> unit
  (** [sleep s] blocks for [s] seconds ([s <= 0] is a no-op). All
      runtime delays — retry backoff, breaker cool-downs — go through
      this seam rather than [Unix.sleepf] directly, so they share the
      clock's testability story. *)

  val set_sleeper : (float -> unit) option -> unit
  (** [set_sleeper (Some f)] replaces the real sleep with [f] — the
      hook that lets backoff schedules be asserted on without waiting
      them out. [set_sleeper None] restores the real sleep. Test-only. *)
end

val unlimited : t
(** The no-op budget: never exhausts. This is the default ambient
    budget; ticks against it stay on the decrement-and-branch fast
    path. *)

(** [make ?timeout ?fuel ?chaos ()] builds a
    budget. [timeout] is in seconds from now (the deadline is absolute,
    so one budget bounds the total wall time of everything run under
    it); [fuel] is the number of cooperative ticks allowed.

    [~chaos:(seed, rate)] arms deterministic fault injection: every
    {!tick} against the budget aborts with probability [rate], decided
    by a pseudo-random stream derived from [seed] alone — the same seed
    replays the same abort point. The injected failure is
    [Fuel_exhausted "chaos injection at <loop>"], so chaos aborts flow
    through exactly the code paths a real exhaustion would.
    @raise Invalid_argument on a negative timeout, [fuel < 1], or a
    chaos rate outside [0, 1]. *)
val make :
  ?timeout:float ->
  ?fuel:int ->
  ?chaos:int * float ->
  unit ->
  t

val refresh : t -> t
(** [refresh b] is a budget with [b]'s deadline but the fuel
    refilled to its initial amount — used by degradation ladders to
    give each fallback rung a fresh fuel slice under the same overall
    deadline. A chaos stream, if armed, is shared with [b] (it
    continues rather than replays). *)

val escalate : ?factor:float -> ?extend_deadline:bool -> t -> t
(** [escalate b] is a budget like [b] with its fuel allowance multiplied
    by [factor] (default 4.0, saturating at unlimited) and refilled.
    With [~extend_deadline:true] the original relative timeout is also
    multiplied by [factor] and the deadline re-anchored at now;
    otherwise the absolute deadline is kept. This is the retry policy's
    step: each attempt gets a strictly bigger budget.
    @raise Invalid_argument when [factor < 1]. *)

val is_unlimited : t -> bool

val remaining_fuel : t -> int option
(** [None] when fuel is unlimited. *)

val remaining_time : t -> float option
(** Seconds until the deadline (negative when past); [None] without a
    deadline. *)

(** {2 The ambient budget}

    {!Guard.run} installs a budget for the dynamic extent of a solver
    call; the hot loops consume it through {!tick} without any
    plumbing. *)

val install : t -> t
(** [install b] makes [b] the ambient budget and returns the previous
    one (restore it when done — {!Guard.run} does). *)

val installed : unit -> t

val tick : ?what:string -> unit -> unit
(** [tick ~what ()] consumes one unit of ambient fuel and, every 1024
    ticks, checks the wall clock. [what] names the calling loop for the
    {!Fuel_exhausted} payload.
    @raise Exhausted when the budget is spent. *)

val pp : Format.formatter -> t -> unit
