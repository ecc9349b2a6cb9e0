(** Interprocedural effect inference: every {!Callgraph} node gets the
    set of top-level mutable bindings ({e sites}) it reads and writes,
    computed by a single bottom-up pass over the Tarjan SCC
    condensation (ascending SCC id = callees first, see
    {!Callgraph.scc_of}). Each site carries its [Runtime_state]
    registration status: a write to an unregistered site is what R9
    reports, because nothing resets that state after a budget abort
    or in an [Isolate] fork worker.

    [Budget], [Guard] and [Runtime_state] are exempt by contract:
    their nodes are effect-free and effect-opaque. Thunks passed
    through them still contribute — the caller mentions the thunk body
    directly. *)

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
}

type t

val analyze : Callgraph.t -> (string * Typedtree.structure) list -> t
(** [analyze g impls] — [impls] must be the same [(modname,
    structure)] list [g] was built from, so source anchors round-trip
    through {!Callgraph.node_at}. *)

val signature : t -> int -> esig
(** Final (post-fixpoint) signature of a Callgraph node. *)

val sites : t -> site array

val unregistered_writes : t -> esig -> site list
(** The written sites that are not [Runtime_state]-registered — R9's
    finding. Empty iff every write is registered. *)

val describe : t -> esig -> string
(** One-line rendering: ["pure"], ["reads-cache(nsep.tier, ...)"] when
    every write is registered, ["writes-global(...)"] otherwise. ["!"]
    marks written sites; registered sites print their registry name,
    unregistered ones their qualified binding name. *)

(**/**)

val alloc_head : Typedtree.expression -> string option
val writer_head : string -> bool
(** Mutable-allocation and mutating-application tables, shared with
    {!Escape}. *)
