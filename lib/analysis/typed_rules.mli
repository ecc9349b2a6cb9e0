(** The typed lint rules, evaluated over {!Callgraph}'s whole-library
    mention graph and the loaded typed trees:

    - {b R1'} — interprocedural budget discipline: every [while]/[for]
      loop and every call-graph cycle in a solver module must reach
      [Budget.tick], through any number of (cross-module) helpers.
      Reported under [R1] with keys [while@encl], [for@encl] and
      [rec:name].
    - {b R6} — determinism: no PRNG, wall-clock read, or
      order-dependent [Hashtbl] iteration on any path reachable from a
      solver module's exported surface ([Budget.Clock] is exempt: it
      lives outside the solver dirs).
    - {b R7} — marshal safety: the ok type of every application of
      [Isolate.run] (or of a [Guard.runner]'s [.run] field) must be
      transitively closure-free and custom-block-free, walked through
      the library's own type declarations.
    - {b R8} — [_b] drift: each budgeted [_b] entry point in an
      interface must agree with its unbudgeted twin modulo the
      [?budget] argument and the [(_, Guard.failure) result] wrapper.
    - {b R9} — state registration: every exported solver entry point
      gets an inferred {!Effects} signature; writing a top-level
      mutable that is not [Runtime_state]-registered is a finding.
    - {b R10} — fork-time aliasing: a locally-created mutable value
      ({!Escape}) must not cross an [Isolate.run]/[Isolate.spawn] or
      runner-field boundary, directly or captured in a closure.

    (R11, report {e drift}, lives in {!Lint_driver}: it compares the
    committed [docs/EXACTNESS.md] against regeneration, which needs
    the lint root rather than typed trees.)

    Suppression directives and the baseline are applied by the caller
    (the driver merges these findings into the per-file stream before
    [Lint_source.apply]). *)

type source = {
  s_mod : string;  (** compilation unit name, e.g. ["Cq_sep"] *)
  s_file : string;  (** root-relative [.ml] path findings attach to *)
  s_mli : string option;  (** root-relative [.mli] path (R8 findings) *)
  s_solver : bool;  (** in a worst-case-exponential library dir *)
  s_impl : Typedtree.structure;
  s_intf : Typedtree.signature option;
}

val run : Callgraph.t -> source list -> Lint_finding.t list
(** All typed findings over the loaded set, unfiltered and unsorted.
    The graph must have been built from exactly the [s_impl]s of
    [sources] (plus any extra context modules). *)

val entry_points : Callgraph.t -> source list -> (source * string * int) list
(** The exported surface of the solver modules, as [(module source,
    exported name, graph node)]: every value a solver module's
    interface exports — or, without a [cmti], every top-level
    definition of the module (degrading towards more coverage). The
    root set of R6, R9 and R12. *)
