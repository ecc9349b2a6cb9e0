(** Whole-library interprocedural call graph built from [.cmt] typed
    trees — the substrate of the typed lint rules (R1′ tick
    reachability, R6 determinism, R9 state registration, R12 taint).

    Nodes are value definitions (at any nesting depth), [while]/[for]
    loop bodies, and externals (values mentioned but not defined in
    the loaded set). Edges are typechecker-resolved *mentions*: an
    identifier occurrence is credited to the definition its [Path.t]
    resolves to — across modules, shadowing and [open]s, which name
    matching cannot do. Mentions over-approximate calls in the quiet
    direction. *)

type node_kind =
  | Def  (** a [let]-bound value (any nesting depth) *)
  | Loop of string  (** a [while]/[for] body: ["while"] or ["for"] *)
  | External  (** mentioned but not defined in the loaded cmts *)

type node = {
  id : int;
  name : string;  (** qualified display name, e.g. ["Cq_sep.decide"] *)
  modname : string;  (** compilation unit; [""] for externals *)
  kind : node_kind;
  short : string;  (** unqualified binding name, for finding keys *)
  encl : string;  (** nearest enclosing binding name ([while@encl] keys) *)
  line : int;
  col : int;
  is_rec : bool;  (** bound in a [let rec] group *)
  toplevel : bool;  (** bound at its module's structure top level *)
}

type t

val build : (string * Typedtree.structure) list -> t
(** [build [(modname, structure); ...]] walks every loaded module and
    assembles one graph. Modules referenced but absent from the list
    contribute [External] nodes only — degraded but never wrong-way
    resolution. *)

val size : t -> int
val nodes : t -> node list
val node : t -> int -> node
val succs : t -> int -> int list

val mentions : t -> (int * string * int * int) list
(** Every mention of an external, as [(node, resolved dotted name,
    line, col)] — the sink-matching input of R6. *)

val find_global : t -> string -> int option
(** Look up a definition by dotted name, e.g. ["Cq_sep.decide"]. *)

val cyclic : t -> int -> bool
(** The node sits in a nontrivial SCC (mutual recursion) or carries a
    self-edge (direct recursion). *)

val scc_of : t -> int -> int
(** The node's Tarjan SCC id. Ids are emitted in reverse topological
    order of the condensation: every mention edge leaving an SCC lands
    in an SCC with a {e smaller} id, so processing SCCs in ascending id
    order visits callees before callers — the substrate of
    {!Effects}'s single-pass bottom-up fixpoint. *)

val scc_count : t -> int
(** Number of SCCs (valid SCC ids are [0 .. scc_count - 1]). *)

val resolve : t -> modname:string -> Path.t -> int option
(** Resolve a typechecker path, mentioned in compilation unit
    [modname], to the definition node it was credited to during
    construction: [modname]'s stamped local idents first (so shadowing
    resolves the way the typechecker saw it; stamps repeat across
    units), then dotted global names. [None] for externals and
    unresolvable paths. *)

val node_at : t -> modname:string -> line:int -> col:int -> int option
(** Recover a definition or loop node from its source anchor — the
    binding pattern's (or the loop expression's) start position. Lets a
    second Typedtree walk re-attribute work to the graph's nodes
    without rebuilding it. *)

val reachable_from : ?depth:int -> t -> int list -> int -> bool
(** Forward closure from a root set, as a membership predicate. BFS
    with a depth cap (default 64) and memoized visited set — cycle
    safe by construction. *)

val reachers : ?depth:int -> t -> target:string -> int -> bool
(** Predicate for "can this node reach a node named [target]?",
    computed once by reverse BFS from every node carrying that name
    (defined or external). *)

val reaches : ?depth:int -> t -> target:string -> int -> bool
(** One-off convenience wrapper over {!reachers}. *)

val dump : t -> Buffer.t -> unit
(** Deterministic (name-sorted) textual dump of definitions, loops and
    their resolved edges, for [--dump-callgraph]. *)

val dump_dot : t -> Buffer.t -> unit
(** Graphviz rendering of the SCC condensation ([--dump-callgraph
    --dot]): one box per SCC labelled with up to three member names
    (cyclic SCCs bold), one edge per inter-SCC mention, externals
    elided. Deterministic, for diffing taint-path findings. *)

(**/**)

val local_key : Path.t -> string option
val global_name : Path.t -> string option
(** Path→key helpers shared with {!Typed_rules} (stamped idents for
    local paths, dotted names for paths rooted in a persistent
    module). *)
