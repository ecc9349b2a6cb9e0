(** Polynomial-time evaluation of bounded-width feature queries.

    Implements the classic decomposition-based evaluation the paper
    cites for GHW(k) ([12], Gottlob–Greco–Leone–Scarcello): given a
    width-k decomposition from {!Cq_decomp.decomposition}, each node is
    the join of its ≤k cover atoms and the query atoms assigned to it,
    extended with a column for the free variable when its subtree
    mentions it, and the resulting α-acyclic instance is solved by
    bottom-up semijoins. The cost is polynomial in [|D|^k] —
    polynomial for fixed [k], in contrast to the NP-hard general
    homomorphism search.

    A decomposition is compiled once into a {!program} that fixes
    everything independent of the database: the atom-to-node
    assignment, the atoms that constrain the free variable alone, and
    per node a {e connected} join order over its cover and assigned
    atoms together — each atom after the first shares a variable with
    the ones before it whenever any does, so two disjoint cover atoms
    are joined through the assigned atom linking them rather than
    crossed — with each join's key and bound columns. A program holds
    no database state and serves every database. *)

type program
(** A compiled decomposition of one query. *)

(** [compile q forest] is the join program of [q] over [forest], which
    must satisfy {!Cq_decomp.check_decomposition}.
    @raise Invalid_argument if an atom's existential variables fit in
    no bag. *)
val compile : Cq.t -> Cq_decomp.decomp list -> program

(** [run rels p] is [q(db)], in [Elem.compare] order, for the query
    [p] was compiled from, over the database of [rels]. It runs on the
    pass's element ids ({!Atom_rels.id_rows}), which number only the
    elements of the rows [p] reads, so its work follows those rows,
    not the size of the database's domain. Each node's join is a
    nested loop over atom rows indexed on their bound columns, keyed on
    one id, or on the whole id row when the key is wider — so keys are
    never compared by hash alone. A node keeps only the projection of
    its rows onto the columns it shares with its parent; only the free
    variable's ids are decoded to elements. A tree that avoids the free
    variable is decided without crossing it with the entities. *)
val run : Atom_rels.t -> program -> Elem.t list

(** [eval ~k q db] is [Some (q db)] when [ghw q ≤ k], computed through
    a compiled width-[k] decomposition; [None] otherwise. *)
val eval : k:int -> Cq.t -> Db.t -> Elem.t list option
