(** Interprocedural effect inference: every {!Callgraph} node gets a
    lattice-valued effect signature

    {v Pure ⊑ ReadsCache(sites) ⊑ WritesGlobal(sites) ⊑ Io ⊑ Forks v}

    computed by a single bottom-up pass over the Tarjan SCC
    condensation (ascending SCC id = callees first, see
    {!Callgraph.scc_of}). Sites are top-level mutable bindings — the
    same program-lifetime state R5 polices — annotated with their
    [Runtime_state] registration status, which is what turns a raw
    signature into a shard-safety verdict: an entry point is
    {e shard-safe} when it is pure or touches only registered caches
    (reset in every [Isolate] fork worker, validated after aborts).

    [Budget], [Guard] and [Runtime_state] are exempt by contract:
    their nodes are Pure and effect-opaque (budget bookkeeping is
    per-worker state). Thunks passed through them still contribute —
    the caller mentions the thunk body directly. *)

type site = {
  site_node : int;  (** Callgraph node id of the top-level binding *)
  site_name : string;  (** qualified display name, e.g. ["Nsep.tier"] *)
  site_what : string;  (** allocation head: ["ref"], ["Hashtbl"], ... *)
  site_registered : string option;
      (** [Runtime_state.register ~name] it appears in, if any *)
}

type esig = {
  e_reads : int list;  (** accessed site indexes, sorted, deduplicated *)
  e_writes : int list;  (** mutated site indexes (also listed in reads) *)
  e_io : bool;
  e_forks : bool;
}

type level = Pure | Reads_cache | Writes_global | Io | Forks

type t

val analyze : Callgraph.t -> (string * Typedtree.structure) list -> t
(** [analyze g impls] — [impls] must be the same [(modname,
    structure)] list [g] was built from, so source anchors round-trip
    through {!Callgraph.node_at}. *)

val signature : t -> int -> esig
(** Final (post-fixpoint) signature of a Callgraph node. *)

val sites : t -> site array
val site : t -> int -> site

val accesses : t -> esig -> (site * bool) list
(** Touched sites in index order, [true] = written. *)

val unregistered_writes : t -> esig -> site list
(** The sites that make a signature [Writes_global] — written and not
    [Runtime_state]-registered. Empty iff writes are all registered. *)

val level : t -> esig -> level
(** Collapse a signature to its lattice level. Writes to {e registered}
    sites stay at [Reads_cache] — registration is the discipline that
    makes the mutation worker-local by contract. *)

val shard_safe : t -> esig -> bool
(** [Pure], or [Reads_cache] with every touched site registered. *)

val level_name : level -> string

val describe : t -> esig -> string
(** One-line rendering, e.g. ["reads-cache(nsep.tier, nsep.stats!)"] —
    ["!"] marks written sites; registered sites print their registry
    name, unregistered ones their qualified binding name. *)

(**/**)

val io_external : string -> bool
val fork_external : string -> bool
(** Name classifiers for external nodes, exposed for tests. *)

val alloc_head : Typedtree.expression -> string option
val writer_head : string -> bool
(** Mutable-allocation and mutating-application tables, shared with
    {!Escape}. *)
