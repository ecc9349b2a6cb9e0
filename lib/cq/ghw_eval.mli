(** Polynomial-time evaluation of bounded-width feature queries.

    Implements the classic decomposition-based evaluation the paper
    cites for GHW(k) ([12], Gottlob–Greco–Leone–Scarcello): given a
    width-k decomposition from {!Cq_decomp.decomposition}, each node is
    materialized as the join of its ≤k cover atoms (plus the query
    atoms assigned to it), extended with a column for the free
    variable, and the resulting α-acyclic instance is solved by
    bottom-up semijoins. The cost is polynomial in [|D|^k] —
    polynomial for fixed [k], in contrast to the NP-hard general
    homomorphism search. *)

(** [eval ~k q db] is [Some (q db)] when [ghw q ≤ k], computed through
    a width-[k] decomposition; [None] otherwise. *)
val eval : k:int -> Cq.t -> Db.t -> Elem.t list option

(** [eval_with_decomp rels q forest] is [q(db)] over the database of
    [rels], through a caller-supplied decomposition (e.g. one
    decomposition reused across many databases); the atom relations
    come from [rels]. The forest must satisfy
    {!Cq_decomp.check_decomposition}. Only the nodes whose subtree
    mentions the free variable carry it: a tree that avoids it is
    decided without crossing it with the entities. *)
val eval_with_decomp : Atom_rels.t -> Cq.t -> Cq_decomp.decomp list -> Elem.t list
