(** The cqlint driver: walk [lib/], [bin/] and [bench/], run the
    enabled rules — the typed, whole-library pass where [.cmt] files
    exist, the Parsetree rules everywhere — apply suppressions and the
    committed baseline, and produce a report.

    The typed pass loads each library's [-bin-annot] output, builds
    one interprocedural call graph over everything it found, and
    evaluates R1' (which subsumes the Parsetree R1 for covered files),
    R6, R7 and R8. A module whose cmt is missing or unreadable falls
    back to the Parsetree rules and is listed in [degraded] — reduced
    precision is always reported, never silent.

    The baseline file grandfathers pre-existing findings without
    touching the offending lines. One finding per line:

    {v R1 lib/cq/join_tree.ml rec:build — reason text v}

    (rule, root-relative file, stable key, em-dash — or [--] — then a
    mandatory reason). [#]-comments and blank lines are ignored.
    Matching is by (rule, file, key), never by line number, so
    unrelated edits don't invalidate the baseline; entries that no
    longer match anything are reported as stale. *)

val solver_dirs : string list
(** The worst-case-exponential libraries R1/R5/R6 apply to:
    [core cq relational folang covergame lp linsep]. *)

type config = {
  root : string;  (** directory containing [lib/] (and [bin]/[bench]) *)
  rules : Lint_finding.rule list;  (** enabled rules *)
  baseline : string option;  (** baseline file path, if any *)
  typed : bool;  (** load cmts and run the typed pass (default true) *)
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
  degraded : string list;
      (** library sources with no readable annotation — Parsetree
          fallback *)
}

val lint_source :
  rules:Lint_finding.rule list ->
  solver:bool ->
  Lint_source.t ->
  Lint_finding.t list
(** Run the per-file Parsetree rules on one parsed source (R1 and R5
    gated on [solver]) and apply its suppression directives. This is
    the unit the linter's own tests drive. *)

val run : config -> (report, string) result
(** Lint the tree under [root]. [Error] on unreadable or unparsable
    sources and on malformed baseline files — internal errors,
    distinct from findings (exit 2 vs 1). *)

val callgraph : config -> (Callgraph.t, string) result
(** Build (only) the whole-library call graph, for
    [--dump-callgraph]. *)

val par_report : config -> (string, string) result
(** Generate the shard-safety report ({!Shard_report.generate}) for the
    tree under [root] — the exact bytes R11 expects to find committed
    at [docs/SHARD_SAFETY.md]. [Error] when no cmts are loadable. *)

val taint_report : config -> (string, string) result
(** Generate the exactness-boundary report
    ({!Protocol_rules.exactness_report}) — the exact bytes R11 expects
    committed at [docs/EXACTNESS.md]. [Error] when no cmts are
    loadable. *)

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
