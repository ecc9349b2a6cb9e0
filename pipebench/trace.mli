(** Spans and counters that the benchmark records around its calls
    into the library's layers, plus the arithmetic that turns
    them into per-layer figures.

    Recording is off unless {!enabled} is set; a disabled {!span} is
    one branch and a call. Spans are kept in memory for the whole run. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, [0] at top level *)
  req : int;  (** the pipeline iteration that caused the span *)
  name : string;
  start : float;
  stop : float;
}

val enabled : bool ref

(** [reset ()] drops every recorded span and counter. *)
val reset : unit -> unit

(** [set_request r] tags the spans recorded from now on with [r]. *)
val set_request : int -> unit

(** [span name f] runs [f], recording a span around it when enabled. *)
val span : string -> (unit -> 'a) -> 'a

(** [last_closed ()] is the id of the most recently completed span
    ([0] when none). *)
val last_closed : unit -> int

(** [under parent f] runs [f] with the spans it records parented to
    [parent], a span that has already closed. The benchmark uses it to
    re-measure calls that a library function makes internally (where
    the benchmark cannot wrap them): the re-measured spans count as
    children of that function's span, so its self time excludes them,
    while their own interval lies outside it and outside the timed
    operation. *)
val under : int -> (unit -> 'a) -> 'a

(** [count name n] adds [n] to counter [name] when enabled. *)
val count : string -> float -> unit

val counter : string -> float

val spans : unit -> span list

(** [self_times spans] sums, per span name, each span's duration minus
    the durations of its children. Sorted by name. *)
val self_times : span list -> (string * float) list

(** [unattributed_share ~wall self] is the part of [wall] that no
    layer's self time accounts for, as a share of [wall]. *)
val unattributed_share : wall:float -> (string * float) list -> float

(** [median xs] of a non-empty list.
    @raise Invalid_argument on [[]]. *)
val median : float list -> float

(** [tail xs] is the highest-percentile sample with at least ten
    samples above it, with that percentile: for [n] samples, the
    [(n-10)]-th smallest, at percentile [100 (n-10) / n]. [None] when
    [n < 11]. *)
val tail : float list -> (float * float) option
