(** The cqlint driver: walk [lib/], [bin/] and [bench/], run the
    enabled rules — the Parsetree rules (R0, R2, R3, R4) everywhere,
    the typed, whole-library pass over [lib/] — apply suppressions and
    the committed baseline, and produce a report.

    The typed pass loads each library's [-bin-annot] output, builds
    one interprocedural call graph over everything it found, and
    evaluates R1', R6-R10 and R12-R14. Every [lib/] source must have a
    readable [.cmt]/[.cmti]: a missing one is an internal error (run
    [dune build @lib/all] first; [dune build @lint] does).

    The baseline file grandfathers pre-existing findings without
    touching the offending lines. One finding per line:

    {v R1 lib/cq/join_tree.ml rec:build — reason text v}

    (rule, root-relative file, stable key, em-dash — or [--] — then a
    mandatory reason). [#]-comments and blank lines are ignored.
    Matching is by (rule, file, key), never by line number, so
    unrelated edits don't invalidate the baseline; entries that no
    longer match anything are reported as stale. *)

val solver_dirs : string list
(** The worst-case-exponential libraries R1'/R6/R9 apply to:
    [core cq relational folang covergame lp linsep]. *)

type config = {
  root : string;  (** directory containing [lib/] (and [bin]/[bench]) *)
  rules : Lint_finding.rule list;  (** enabled rules *)
  baseline : string option;  (** baseline file path, if any *)
}

val default_config : root:string -> config

type report = {
  findings : Lint_finding.t list;  (** survivors, sorted *)
  files_checked : int;
  suppressed : int;  (** silenced by reasoned allow-directives *)
  baselined : int;  (** grandfathered by the baseline file *)
  stale_baseline : string list;
      (** baseline entries that matched no finding (file still exists) *)
  missing_file_baseline : string list;
      (** baseline entries whose file no longer exists — deletable,
          never fixable *)
  typed_modules : int;  (** modules the typed pass loaded cmts for *)
}

val lint_source :
  rules:Lint_finding.rule list -> Lint_source.t -> Lint_finding.t list
(** Run the per-file Parsetree rules (R2, R3) on one parsed source and
    apply its suppression directives. *)

val load_dir :
  root:string ->
  rel_dir:string ->
  lib_name:string ->
  solver:bool ->
  ml:string list ->
  mli:string list ->
  (Typed_rules.source list, string) result
(** The typed sources of one library directory ([rel_dir] under
    [root], dune library [lib_name]). [Error] names the first source
    without a readable annotation. *)

val load_lib : root:string -> (Typed_rules.source list, string) result
(** {!load_dir} over every library under [root/lib] — the typed pass's
    input. [Error] as {!load_dir}, and when no module loads. *)

val run : config -> (report, string) result
(** Lint the tree under [root]. [Error] on unreadable or unparsable
    sources, on [lib/] sources without annotations and on malformed
    baseline files — internal errors, distinct from findings (exit 2
    vs 1). *)

val callgraph : config -> (Callgraph.t, string) result
(** Build (only) the whole-library call graph, for
    [--dump-callgraph]. *)

val taint_report : config -> (string, string) result
(** Generate the exactness-boundary report
    ({!Protocol_rules.exactness_report}) — the exact bytes R11 expects
    committed at [docs/EXACTNESS.md]. *)

type baseline_entry = {
  b_rule : Lint_finding.rule;
  b_file : string;
  b_key : string;
  b_reason : string;
}

val parse_baseline : string -> (baseline_entry list, string) result
(** Parse baseline file contents (not a path). Every entry must carry
    a reason. *)

val baseline_line : Lint_finding.t -> string
(** Render a finding as a baseline line with a [TODO] reason — the
    [--write-baseline] starting point; reasons must be filled in by a
    human. *)
