(** Homomorphism search between databases.

    A homomorphism from [src] to [dst] is a map [h] on [domain src]
    such that every fact [R(ā)] of [src] has [R(h(ā))] in [dst]. One
    search answers every homomorphism question of the library: CQ
    evaluation, CQ containment and cores, the hom-equivalence test
    behind CQ-Sep, and the QBE product criterion. It treats the source
    facts as constraints, keeps the domains generalized arc consistent
    and branches on a smallest domain. The search is worst-case
    exponential (the problem is NP-complete), matching the paper's
    combined-complexity landscape. *)

type mapping = Elem.t Elem.Map.t

(** [find ?fix ~src ~dst ()] searches for a homomorphism from [src]
    to [dst] extending the partial assignment [fix]. Returns the full
    mapping on [domain src] if one exists. [fix] may mention elements
    outside [domain src]; they are ignored. It is [find_ctx] on a
    context built for this one question. *)
val find :
  ?fix:(Elem.t * Elem.t) list -> src:Db.t -> dst:Db.t -> unit ->
  mapping option

(** [exists ?fix ~src ~dst ()] is [find ... <> None]. *)
val exists :
  ?fix:(Elem.t * Elem.t) list -> src:Db.t -> dst:Db.t -> unit -> bool

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

(** A precomputed search between two fixed databases, for callers that
    ask many pinned questions of one pair, such as the homomorphism
    preorder of a database or the entities a query selects. Immutable
    once built: a query works on its own copy of the domains, so one
    aborted by its budget leaves the context reusable. *)
type context

(** [context ~src ~dst] numbers both domains, turns every fact of [src]
    into a constraint whose allowed tuples are the facts of [dst] with
    its relation, and makes the unpinned domains arc consistent. *)
val context : src:Db.t -> dst:Db.t -> context

(** [find_ctx ctx ~fix] is a homomorphism from [src] to [dst] extending
    [fix], if one exists; [fix] is treated as by {!find}. A query
    copies the context's arc-consistent domains, restricts the pinned
    ones, restores arc consistency from the pinned elements' facts, and
    searches with propagation after every assignment, branching on a
    smallest domain; a branch puts back the values it removed from a
    trail of removals. *)
val find_ctx : context -> fix:(Elem.t * Elem.t) list -> mapping option
