(** Join trees and Yannakakis evaluation for α-acyclic feature queries.

    The paper's tractability results lean on polynomial-time CQ
    evaluation for restricted classes ([9], [12]); the textbook engine
    for the acyclic case is GYO ear removal + the Yannakakis
    semijoin algorithm, implemented here from scratch. A feature query
    is treated as a plain CQ over all its variables (the free variable
    is an ordinary vertex here — this is full α-acyclicity, a stronger
    condition than the free-variable-deleted acyclicity of
    {!Cq_decomp.is_free_acyclic}).

    [eval] runs in time polynomial in [|D|] (O(|D|·log|D|) semijoins
    per atom), versus the exponential worst case of backtracking
    homomorphism search — the crossover that the `eval/engines` bench
    measures. *)

type tree
(** A join forest over the atoms of a query. *)

(** [build q] is the GYO reduction: [Some forest] iff the full atom
    hypergraph of [q] (including [eta(x)]) is α-acyclic. *)
val build : Cq.t -> tree option

(** [is_acyclic q] is [build q <> None]. *)
val is_acyclic : Cq.t -> bool

(** [eval_tree rels t] computes [q(db)] for the query [t] was built
    from, over the database of [rels], by bottom-up semijoin reduction
    over the join forest; the atom relations come from [rels]. A tree
    built once serves every database. *)
val eval_tree : Atom_rels.t -> tree -> Elem.t list

(** [eval q db] is [build] followed by {!eval_tree}.
    @raise Invalid_argument if [q] is not α-acyclic (check {!is_acyclic}
    or use {!Eval_engine.eval}). *)
val eval : Cq.t -> Db.t -> Elem.t list
