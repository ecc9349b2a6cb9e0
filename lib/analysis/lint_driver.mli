(** The cqlint driver: walk [lib/], [bin/] and [bench/], run the
    enabled rules over the typed trees, apply suppressions and the
    committed baseline, and produce a report.

    The typed pass loads each library's [-bin-annot] output, builds
    one interprocedural call graph over [lib/], and evaluates R1'-R3,
    R6-R10 and R12-R14 on it; the executables of [bin/] and [bench/]
    are loaded too, for R2 and R3 only. Every source must have a
    readable [.cmt]/[.cmti]: a missing one is an internal error (run
    [dune build @lib/all @bin/check @bench/check] first; [dune build
    @lint] does). R4 and R11 need only the tree: R4 reads file names,
    R11 the committed report.

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
  typed_modules : int;
      (** units the typed pass loaded cmts for, libraries and
          executables *)
}

val r4_missing_mli :
  dir:string -> ml:string list -> mli:string list -> Lint_finding.t list
(** R4: every [.ml] basename in [ml] needs a matching basename in
    [mli]. Findings point at [dir/<file>.ml] line 1. *)

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
(** {!load_dir} over every library under [root/lib] — the call graph's
    and the exactness report's input. [Error] as {!load_dir}, and when
    no module loads. *)

val run : config -> (report, string) result
(** Lint the tree under [root]. [Error] on unreadable or unlexable
    sources, on sources without annotations and on malformed
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
