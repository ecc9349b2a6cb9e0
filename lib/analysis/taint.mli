(** Interprocedural float-taint inference over the {!Callgraph}: every
    top-level binding gets a {e return-taint} summary — does the value
    it evaluates to derive from uncertified floating point? — computed
    bottom-up over the Tarjan SCC condensation in the style of
    {!Effects}, plus a coarser {e float-reachability} bit used to
    separate "exact" from "certified" entry points in the
    [--taint-report].

    The per-body evaluation is a small dataflow interpretation, not a
    reachability query: local [let]/[match] bindings carry the taint
    of their right-hand side, application results carry the callee's
    {e summary} (never the arguments' taint — that is what lets
    [Certify.hyperplane w] launder a float weight vector into an exact
    certificate), and conditions are deliberately dropped. The
    resulting blind spots all point the quiet way and are documented
    in [docs/LINT.md] (R12):

    - control-only dependence ([if float_gap < eps then ... ]) is not
      taint — verdicts must carry their certificates for the analysis
      to see them, which the library's API style enforces;
    - taint stored into an initially-clean mutable local is not
      tracked — initialize accumulators from a value of their final
      provenance;
    - exception payloads are not tracked through [raise].

    Sources are float literals, float primitives, [Float.*],
    [Rat.to_float] and the float-valued constants ([infinity], [nan],
    ...); unknown externals propagate the disjunction of their
    argument taints (so [ref]/[!]/[Array.get] behave naturally).
    Sanitizers — [Certify.hyperplane]/[farkas] and the
    exact [Rat.of_float] — return clean by contract, as do the trusted
    exact/bookkeeping modules ([Rat], [Bigint], [Budget], [Guard],
    [Runtime_state], string formatting). *)

type t

val analyze : Callgraph.t -> (string * Typedtree.structure) list -> t
(** [analyze g impls] — [impls] must be the same [(modname,
    structure)] list [g] was built from (anchors round-trip through
    {!Callgraph.node_at}). *)

val return_taint : t -> int -> string option
(** Post-fixpoint summary of a top-level binding node: [Some witness]
    when its return value derives from an unsanitized float source;
    the witness names the source and the chain it travelled. [None]
    for clean nodes and for nodes the pass did not anchor (nested
    bindings, loops, externals). *)

val touches_float : t -> int -> bool
(** The node's body, or any defined callee's (outside the exempt
    runtime-bookkeeping modules), mentions a float source at all —
    clean summaries over a float-touching body are the "certified"
    rows of the exactness report. *)

val bodies : t -> (int * Typedtree.expression) list
(** The anchored top-level bindings, as [(Callgraph node, defining
    expression)], in ascending SCC order (callees first) — the walk
    substrate shared with {!Protocol_rules}. *)

val scan_calls :
  t ->
  heads:(string -> bool) ->
  (node:int -> head:string -> loc:Location.t -> args:string option list -> unit) ->
  unit
(** Visit every application of a matching external head anywhere under
    an anchored body, with the taint of each positional argument
    evaluated in the local environment at that point — the
    serialization-sink scan of R12. [node] is the enclosing top-level
    binding. *)

(**/**)

val source_head : string -> bool
val sanitizer_head : string -> bool
(** Name classifiers, exposed for tests. *)
