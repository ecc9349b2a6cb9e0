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
    enumerated list). *)

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

(** [columns b db es] is the column of each feature of [b], in order,
    over the positions of [es] (repeats allowed): position [i] is set
    iff [es.(i) ∈ q(db)], so an element outside [η(db)] is never set.
    A feature's column is its x-column when all its Boolean
    components hold in [db], else empty. An x-component planned as
    hom search runs a pointed search per distinct element of [es];
    the others are evaluated once over [db]. *)
val columns : batch -> Db.t -> Elem.t array -> column array

(** [eval q db] is [q(db)] — a one-feature batch over
    [Db.entities db], in that order. *)
val eval : Cq.t -> Db.t -> Elem.t list
