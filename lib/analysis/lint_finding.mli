(** Lint findings: what a rule reported, where, and under which stable
    key (the key, not the line number, is what the baseline file
    matches on, so findings survive unrelated edits). *)

(** The rule catalogue. [R0] is the meta-rule guarding the linter's
    own directive syntax: a [(* cqlint: allow ... *)] comment that does
    not parse — in particular one missing the mandatory reason — is
    itself a finding, so suppressions cannot silently rot. *)
type rule =
  | R0  (** well-formed [cqlint] directives (always on) *)
  | R1  (** budget discipline (typed): solver loops and recursion must
            reach [Budget.tick] *)
  | R2  (** exception hygiene (typed, every unit): Guard-convertible
            raises, guarded [_b] *)
  | R3  (** comparison safety (typed, every unit): no polymorphic
            compare/hash at domain types *)
  | R4  (** interface hygiene: every library module has an [.mli] *)
  | R6  (** determinism (typed): no PRNG/wall-clock/Hashtbl-order on paths
            from a solver's exported surface *)
  | R7  (** marshal safety (typed): Isolate-crossing result types are
            closure- and custom-block-free *)
  | R8  (** [_b] drift (typed): budgeted twins agree modulo [?budget] and
            the result wrapper *)
  | R9  (** state registration (typed): exported solver entry points must
            not write top-level mutable state that is not registered
            with [Runtime_state] *)
  | R10  (** fork-time aliasing (typed): local mutable state must not escape
             across an [Isolate]/runner boundary *)
  | R11  (** report drift: committed [docs/EXACTNESS.md] matches
             [--taint-report] regeneration *)
  | R12  (** float taint (typed): no uncertified float reaches a
             core/linsep entry point's return or a serialized payload;
             [Certify.*] and exact [Rat.of_float] sanitize *)
  | R13  (** journal-before-ack (typed): observable service state changes
             and [Ok] acks are dominated by [Wal.append] on every path *)
  | R14  (** resource release (typed): acquired Unix/channel/[Isolate]
             handles are released on every path *)

val all_rules : rule list
(** [R1; ...; R14] without [R5] — the toggleable rules ([R0] is always
    enabled). [R5], the Parsetree state-registration rule, was retired
    in favour of [R9]; its number is not reused. [R1]-[R3], [R6]-[R10]
    and [R12]-[R14] are typed; [R4] reads file names and [R11] needs a
    lint root with a [docs/] directory. *)

val rule_to_string : rule -> string
val rule_of_string : string -> rule option

val rule_doc : rule -> string
(** One-line description for [--help] and reports. *)

type t = {
  rule : rule;
  file : string;  (** path as reported, relative to the lint root *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in [Lexing.position] *)
  key : string;
      (** stable, line-independent identity within [file], e.g.
          [rec:solve], [while@drain#1], [val:generate] *)
  message : string;
}

val make :
  rule:rule -> file:string -> loc:Location.t -> key:string -> string -> t

val v :
  rule:rule -> file:string -> line:int -> col:int -> key:string -> string -> t

val compare : t -> t -> int
(** Orders by file, then line, column, rule, key. *)

val to_text : t -> string
(** [file:line:col: RULE [key] message] — one line, compiler-style. *)

val json_escape : string -> string
(** JSON string-body escaping, shared with the SARIF writer. *)

val to_json : t -> string
(** One finding as a JSON object (no trailing newline). *)

val list_to_json : t list -> string
(** A JSON array of findings, one per line, suitable for artifacts. *)
