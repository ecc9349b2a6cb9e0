(** The shard-safety report: deterministic markdown mapping every
    exported solver entry point ({!Typed_rules.entry_points}) to its
    inferred {!Effects} signature and shard-safety verdict.

    [bin/lint.exe --par-report] prints it; the committed copy at
    [docs/SHARD_SAFETY.md] is the contract that code run in [Isolate]
    fork workers relies on, and R11 ({!Lint_driver}) fails when the two
    differ. *)

val generate : Callgraph.t -> Effects.t -> Typed_rules.source list -> string
(** Byte-deterministic for a fixed tree: modules and entries sorted,
    no timestamps. Ends with a newline. *)
