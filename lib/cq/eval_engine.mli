(** Evaluation dispatcher: pick the cheapest sound engine per query,
    and evaluate whole feature lists in one pass.

    - α-acyclic queries (including the free variable) go to the
      Yannakakis engine ({!Join_tree}) — polynomial.
    - Otherwise, if a width-k decomposition with small k exists, the
      decomposition engine ({!Ghw_eval}) — polynomial for fixed k. The
      plan holds the decomposition compiled into a join program: the
      atom-to-node assignment, per node a connected join order over its
      cover and assigned atoms, and each join's key and bound columns
      are fixed once, at planning, and the program runs on the pass's
      element ids.
    - Otherwise homomorphism search ({!Cq.selector}): one context per
      query and database, one pinned question per entity — NP-hard
      combined complexity, matching the general case.

    A feature list is compiled once into a {!batch} and evaluated per
    database by {!columns}. A feature whose atoms fall into several
    connected components is its x-component — the atoms connected to
    the free variable, with [eta(x)] — conjoined with Boolean
    sentences. The batch splits every feature that way, keeps each
    distinct component once (by its sorted atom list) and plans each
    once. One {!columns} call builds each atom relation once
    ({!Atom_rels}), decides each Boolean component once as a
    non-emptiness test and evaluates each x-component once. A batch
    holds no database state, so one batch serves every database; the
    caller keeps it ({!Cq_enum.feature_batch} memoizes the batch of an
    enumerated list).

    An enumerated list is closed under dropping an atom, and adding an
    atom only shrinks a component's answers, so its batch is compiled
    along the atom-extension lattice ({!linked_batch}): each component
    it can is linked to a parent, another component of the batch with
    exactly its atoms minus one, and evaluated from the parent's
    bindings on the pass's element ids ({!Atom_rels.id_rows}), never
    planned:
    - a component that some other component extends keeps its full
      binding table, every variable bound: its parent's table joined
      with the extra atom's rows;
    - any other is a semijoin of its parent's table with the extra
      atom, since [π_X(P ⋈ a) = π_X(P ⋉ a)]: an x-column marks the x
      ids whose rows survive, a Boolean component stops at its first
      surviving row;
    - an empty parent settles its children without evaluating them.

    The roots are [eta(x)] and the one-atom Boolean components, whose
    tables are one atom's id rows. Components with no linked parent
    keep their plan, and so does every component of a {!batch}: kept
    statistics, served models and {!eval} are never linked. *)

type plan =
  | Acyclic of Join_tree.tree
  | Decomposed of Ghw_eval.program
      (** a decomposition of width at most 2, compiled by
          {!Ghw_eval.compile} *)
  | Hom_search

(** [plan q] chooses an engine: a join tree when [q] is α-acyclic, else
    a decomposition of width at most 2 (the least width that has one),
    compiled, else homomorphism search. *)
val plan : Cq.t -> plan

(** [plan_kind_name p] is a short label for reporting/benches. *)
val plan_kind_name : plan -> string

(** [eval_with_plan q plan db] evaluates [q] through a plan computed
    earlier for it, whole. *)
val eval_with_plan : Cq.t -> plan -> Db.t -> Elem.t list

(** Indicator columns: a bitset over positions [0 .. n-1] of the
    element array a column was evaluated over, in words of
    [Sys.int_size] bits, for any [n]. Columns are immutable; features
    with equal columns may share one physically. *)
module Column : sig
  type t

  (** [mem c i] is whether position [i] is selected. *)
  val mem : t -> int -> bool

  (** [is_empty c] is whether no position is selected. *)
  val is_empty : t -> bool

  val equal : t -> t -> bool

  (** [hash c] hashes every word of [c]. *)
  val hash : t -> int
end

type column = Column.t

(** [components q] is the atoms of [q] ([eta(x)] aside) grouped into
    connected components, atoms sharing a variable being connected:
    the atoms of the x-component (empty when no atom mentions the free
    variable) and the Boolean components, each in atom order. [q] is
    connected iff the second list is empty. *)
val components : Cq.t -> Fact.t list * Fact.t list list

(** A compiled feature list. *)
type batch

(** [batch qs] compiles [qs]: each feature split into its
    x-component and Boolean components (union-find over shared
    variables), components deduplicated, each distinct one planned
    once with {!plan}. *)
val batch : Cq.t list -> batch

(** [linked_batch qs] is [batch qs] with each distinct component
    linked, where it can be, to a parent: a root or linked component
    of the same kind in the batch whose atoms are exactly its atoms
    minus one (same variables, not up to renaming), sharing a variable
    with the extra atom. Among several parents, one that already has a
    child is preferred, so that fewer components keep their tables.
    The roots are the x-component [eta(x)] alone and the one-atom
    Boolean components. A root or linked component is not planned;
    every other one is planned as in [batch]. Only a list closed under
    dropping an atom, as {!Cq_enum.feature_batch}'s, links most of its
    components; any list gives the same columns. *)
val linked_batch : Cq.t list -> batch

(** [link_counts b] is, for the x-components and then the Boolean
    components of [b], how many are roots or linked, and how many
    there are. *)
val link_counts : batch -> (int * int) * (int * int)

(** [columns b db es] is the column of each feature of [b], in order,
    over the positions of [es] (repeats allowed): position [i] is set
    iff [es.(i) ∈ q(db)], so an element outside [η(db)] is never set.
    A feature's column is its x-column when all its Boolean
    components hold in [db], else empty. An x-component planned as
    hom search runs a pointed search per distinct element of [es];
    the others are evaluated once over [db]. Along a linked batch's
    lattice, each atom's id rows are grouped once per pass on each
    column a link probes, and a component's table is built on its
    first request (so an x-component no feature needs builds
    nothing). *)
val columns : batch -> Db.t -> Elem.t array -> column array

(** [eval q db] is [q(db)] — a one-feature batch over
    [Db.entities db], in that order. *)
val eval : Cq.t -> Db.t -> Elem.t list
