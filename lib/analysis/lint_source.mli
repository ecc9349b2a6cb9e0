(** Source files as the [cqlint] directives see them: the comment
    stream of the toolchain's own lexer ([Lexer] from compiler-libs),
    which is where suppression directives live. The rules themselves
    read the typed trees ({!Lint_cmt}). *)

type t = {
  path : string;  (** path reported in findings *)
  comments : (string * Location.t) list;
}

val load : ?path:string -> string -> (t, string) result
(** [load file] reads and lexes [file]. [path] overrides the path
    recorded in findings (the driver passes root-relative paths).
    [Error msg] on I/O or lexer errors — the linter treats those as
    internal errors (exit 2), not findings. *)

(** A parsed [(* cqlint: allow R1[,R3] — reason *)] directive. The
    em-dash separator may also be written [--]. The reason is
    mandatory; a directive without one does not suppress anything and
    is reported under {!Lint_finding.R0}. *)
type suppression = {
  rules : Lint_finding.rule list;
  line : int;  (** last line of the comment *)
  reason : string;
}

val suppressions : t -> suppression list * Lint_finding.t list
(** All well-formed directives, plus an [R0] finding for each comment
    that starts with [cqlint:] but does not parse. *)

val suppressed : suppression list -> Lint_finding.t -> bool
(** A directive on (comment-)line [l] covers findings of its rules on
    lines [l] and [l+1]: same-line trailing comments and
    comment-above-the-offending-line both work. *)

val apply : t -> Lint_finding.t list -> Lint_finding.t list * int
(** [apply src findings] adds the [R0] findings for [src], filters out
    suppressed ones, and returns the survivors (sorted) with the count
    of findings that were suppressed. *)
