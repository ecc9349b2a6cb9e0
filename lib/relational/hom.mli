(** Homomorphism search between databases.

    A homomorphism from [src] to [dst] is a map [h] on [domain src]
    such that every fact [R(ā)] of [src] has [R(h(ā))] in [dst]. This
    backtracking search underlies CQ evaluation, CQ containment, the
    hom-equivalence test behind CQ-Sep, and the QBE product criterion.
    The search is worst-case exponential (the problem is NP-complete),
    matching the paper's combined-complexity landscape. *)

type mapping = Elem.t Elem.Map.t

(** [find ?fix ?naive ~src ~dst ()] searches for a homomorphism from
    [src] to [dst] extending the partial assignment [fix]. Returns the
    full mapping on [domain src] if one exists. [fix] may mention
    elements outside [domain src]; they are ignored. With
    [naive = true] the join-based candidate generation is disabled and
    every domain element of [dst] is tried at each step — an ablation
    knob for the bench harness (the result is identical). *)
val find :
  ?fix:(Elem.t * Elem.t) list -> ?naive:bool -> src:Db.t -> dst:Db.t ->
  unit -> mapping option

(** [exists ?fix ?naive ~src ~dst ()] is [find ... <> None]. *)
val exists :
  ?fix:(Elem.t * Elem.t) list -> ?naive:bool -> src:Db.t -> dst:Db.t ->
  unit -> bool

(** [pointed src sa dst db] decides [(src, sa) → (dst, db)]: a
    homomorphism mapping the i-th element of [sa] to the i-th element of
    [db].
    @raise Invalid_argument if the tuples have different lengths. *)
val pointed : Db.t -> Elem.t list -> Db.t -> Elem.t list -> bool

(** [equiv_pointed d e d' e'] decides homomorphic equivalence of the
    pointed databases [(d,e)] and [(d',e')] (maps in both directions). *)
val equiv_pointed : Db.t -> Elem.t -> Db.t -> Elem.t -> bool

(** [is_hom mapping ~src ~dst] checks that [mapping] (total on
    [domain src]) is a homomorphism. *)
val is_hom : mapping -> src:Db.t -> dst:Db.t -> bool

(** [count ?fix ~src ~dst ()] counts all homomorphisms (for tests). *)
val count : ?fix:(Elem.t * Elem.t) list -> src:Db.t -> dst:Db.t -> unit -> int

(** A precomputed search between two fixed databases, for callers that
    ask many pinned questions of one pair, such as the homomorphism
    preorder of a database. Immutable once built. *)
type context

(** [context ~src ~dst] numbers both domains, turns every fact of [src]
    into a constraint whose allowed tuples are the facts of [dst] with
    its relation, and makes the unpinned domains arc consistent. *)
val context : src:Db.t -> dst:Db.t -> context

(** [find_ctx ctx ~fix] is a homomorphism from [src] to [dst] extending
    [fix], if one exists: [find_ctx ctx ~fix <> None] iff
    [exists ~fix ~src ~dst ()], and [fix] is treated as by {!find}. The
    mapping found may differ from {!find}'s. A query restricts the
    pinned domains of the context's arc-consistent store, restores arc
    consistency from the pinned elements' facts, and searches with
    propagation after every assignment, branching on a smallest
    domain. *)
val find_ctx : context -> fix:(Elem.t * Elem.t) list -> mapping option
