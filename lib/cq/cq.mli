(** Unary conjunctive queries (feature queries).

    A feature query [q(x)] is represented by its canonical database
    [D_q] together with the free variable [x] (Section 2 of the paper);
    variables are just elements of the canonical database. Following
    the paper's convention, the atom [eta(x)] is always present, so
    [eval q db ⊆ entities db].

    Evaluation, containment and equivalence are all by homomorphism
    (NP-hard in general, per the paper's combined-complexity
    landscape); {!core} minimizes a query to its homomorphic core. *)

type t

(** The canonical free variable [Sym "x"] used by {!make}. *)
val default_free : Elem.t

(** [make ~free atoms] builds the feature query with the given atoms
    (facts whose elements are the query's variables), adding [eta(free)]
    if absent. *)
val make : free:Elem.t -> Fact.t list -> t

(** [of_canonical ~free db] wraps an existing canonical database. *)
val of_canonical : free:Elem.t -> Db.t -> t

(** [of_pointed_db (db, e)] is the canonical CQ of a pointed database:
    every element becomes a variable and [e] becomes the free variable.
    This is the "most specific" query selecting [e] in [db]. *)
val of_pointed_db : Db.t * Elem.t -> t

val free : t -> Elem.t

(** [canonical q] is the canonical database [D_q] (including [eta(x)]). *)
val canonical : t -> Db.t

(** [atoms q] is the atom list of [q] {e excluding} the mandatory
    [eta(free)] atom (the paper does not count it either). *)
val atoms : t -> Fact.t list

(** [num_atoms q] is [List.length (atoms q)] — the [m] of [CQ[m]]. *)
val num_atoms : t -> int

(** [vars q] is the set of variables (elements of the canonical db). *)
val vars : t -> Elem.Set.t

(** [existential_vars q] is [vars q] minus the free variable. *)
val existential_vars : t -> Elem.Set.t

(** [max_var_occurrences q] is the maximum number of atom positions in
    which any single variable occurs, the [p] of [CQ[m,p]] (the
    mandatory [eta(free)] atom is not counted). *)
val max_var_occurrences : t -> int

(** [selects q db e] decides [e ∈ q(db)] by homomorphism search. *)
val selects : t -> Db.t -> Elem.t -> bool

(** [selector q db] is [selects q db], with one homomorphism-search
    context over [(canonical q, db)] built up front and shared by every
    element asked. *)
val selector : t -> Db.t -> Elem.t -> bool

(** [eval q db] is [q(db)]: the entities of [db] selected by [q]. *)
val eval : t -> Db.t -> Elem.t list

(** [contained_in q1 q2] decides [q1 ⊑ q2] (on every database,
    [q1(D) ⊆ q2(D)]) via the canonical-database criterion:
    [(D_q2, x2) → (D_q1, x1)]. *)
val contained_in : t -> t -> bool

(** [equivalent q1 q2] is containment in both directions. *)
val equivalent : t -> t -> bool

(** [conjoin q1 q2] is the conjunction [q1(x) ∧ q2(x)]: existential
    variables are renamed apart and the free variables are identified.
    Used to build the queries [q_e] of Lemma 5.4. *)
val conjoin : t -> t -> t

(** [conjoin_all qs] folds {!conjoin} over a non-empty list.
    @raise Invalid_argument on the empty list. *)
val conjoin_all : t list -> t

(** [top] is the trivial feature query [eta(x)] selecting every
    entity. *)
val top : t

(** [core q] is the homomorphic core of [q]: an equivalent query whose
    canonical database has no proper retraction fixing the free
    variable. Unique up to isomorphism; minimizes the atom count among
    equivalent subqueries. *)
val core : t -> t

(** [rename_canonically q] renames variables to [x, y0, y1, ...] in a
    deterministic traversal order (useful for display and hashing). *)
val rename_canonically : t -> t

(** [iso_canonical_string q] is a string invariant under variable
    renaming: two queries get the same string iff they are isomorphic
    (equal up to renaming the existential variables). Intended for
    deduplicating small queries; the string is an opaque binary key,
    not a rendering of the query.

    Canonical form: the free variable is numbered 0, the others
    [1..n], and each atom is encoded as its relation's rank among the
    query's (name, arity) pairs followed by its argument numbers.
    Color refinement on these integers — from the free variable
    against the rest, rounds over each variable's atoms, the
    positions it takes in them and its neighbours' colors until the
    partition stops splitting — orders the variables into color
    classes; the key is the minimum sorted encoding over all renamings
    that permute variables within their class. Above 10 existential
    variables the key falls back to a deterministic renaming that is
    not isomorphism-invariant (isomorphic large queries may get
    different strings, never the reverse). *)
val iso_canonical_string : t -> string

val equal : t -> t -> bool

(** Structural comparison of canonical databases (not semantic
    equivalence); suitable for sets/maps. *)
val compare : t -> t -> int

(** [to_string q] renders [x :- R(x,y), S(y)] (after canonical
    renaming). *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
