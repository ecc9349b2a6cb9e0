(** The cqlint rule catalogue, one entry point per rule.

    Each rule takes a parsed {!Lint_source.t} and returns raw findings
    — suppression filtering ({!Lint_source.apply}) and baseline
    matching ({!Lint_driver}) happen on top. The [solver] flag marks
    files in the worst-case-exponential solver libraries (the driver
    derives it from the directory; the tests set it explicitly). *)

val r1_budget : Lint_source.t -> Lint_finding.t list
(** R1, solver implementations only: every [while]/[for] loop and
    every self-recursive [let rec] binding must contain a
    [Budget.tick] call, or mention a same-file function that ticks
    directly (one level of intra-file call-graph closure). *)

val r2_exceptions : Lint_source.t -> Lint_finding.t list
(** R2, implementations: [raise] only exceptions {!Guard.run} converts
    ([Invalid_argument]/[Failure]/[Not_found]), [Budget.Exhausted],
    [Exit], or exceptions declared in the same file (local control
    flow); and every toplevel [_b] binding must wrap its body in
    [Guard.run]/[Guard.run_result] or delegate to another [_b]. *)

val r3_comparisons : Lint_source.t -> Lint_finding.t list
(** R3, implementations: no [Hashtbl.hash]; no polymorphic
    [=]/[<>]/[compare] applied to a [Rat]/[Bigint]-valued operand; no
    default [Hashtbl] operations keyed by a [Rat]/[Bigint] value. *)

val r5_state : Lint_source.t -> Lint_finding.t list
(** R5, solver implementations only: a top-level [let] binding whose
    right-hand side allocates a mutable container ([ref ...],
    [Hashtbl.create], [Queue.create], [Buffer.create], [Array.make],
    ...) must be registered with [Runtime_state.register] somewhere in
    the same file (detected by the binding's name occurring inside a
    [register] call's arguments). Local mutable state inside function
    bodies is exempt — it cannot outlive an abort. *)

val r4_missing_mli :
  dir:string -> ml:string list -> mli:string list -> Lint_finding.t list
(** R4: every [.ml] basename in [ml] needs a matching basename in
    [mli]. Findings point at [dir/<file>.ml] line 1. *)
