(** The cqlint rule catalogue, one entry point per rule.

    Each rule takes a parsed {!Lint_source.t} and returns raw findings
    — suppression filtering ({!Lint_source.apply}) and baseline
    matching ({!Lint_driver}) happen on top. These are the rules
    that need no type information; the typed rules live in
    {!Typed_rules} and {!Protocol_rules}. *)

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

val r4_missing_mli :
  dir:string -> ml:string list -> mli:string list -> Lint_finding.t list
(** R4: every [.ml] basename in [ml] needs a matching basename in
    [mli]. Findings point at [dir/<file>.ml] line 1. *)
