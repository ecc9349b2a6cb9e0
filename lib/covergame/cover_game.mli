(** The existential k-cover game of Chen & Dalmau (Prop 5.1/5.2 of the
    paper).

    [(D, ā) →_k (D', b̄)] holds iff Duplicator wins the existential
    k-cover game: Spoiler pebbles elements of [D] (the pebbled set must
    stay coverable by at most [k] facts of [D]), Duplicator answers in
    [D'], and the correspondence (including [ā ↦ b̄]) must remain a
    partial homomorphism at all times.

    The decision procedure is the standard greatest-fixpoint
    computation: start from all partial homomorphisms whose domain is a
    k-covered set (agreeing with [ā ↦ b̄] and respecting every fact of
    [D] inside domain ∪ ā), then repeatedly delete maps that (a) lost
    all extensions to some one-element k-covered enlargement of their
    domain, or (b) lost a restriction (Spoiler can remove pebbles).
    Duplicator wins iff the empty map survives. Polynomial for fixed
    [k] (Prop 5.1); the constant grows quickly with [k] and the arity,
    which is faithful to the theory.

    Key consequences used across the library (Prop 5.2): for a CQ [q] of
    ghw ≤ k, [ā ∈ q(D)] iff [(D_q, x̄) →_k (D, ā)]; and [(D,ā) →_k
    (D',b̄)] iff every GHW(k) query selecting [ā] in [D] selects [b̄] in
    [D']. *)

(** [covered_subsets ~k d] is every k-covered subset of [dom d]: the
    subsets of unions of at most [k] facts (the legal pebble sets of
    Spoiler). Includes the empty set. *)
val covered_subsets : k:int -> Db.t -> Elem.Set.t list

type context
(** Precomputed game structure between a fixed pair of databases: the
    unpinned position lattice with its links indexed by integer slots,
    and its greatest fixpoint. Lets many
    pinned queries share the expensive enumeration: the n² of
    {!preorder}, one per (representative, evaluation entity) in
    Algorithm 1, one per negative example in GHW(k)-QBE.

    A context also memoizes one index per pin domain (the set of pinned
    elements of [d]) that a query has used: the unpinned survivors that
    pebble a pinned element, filed by its image.
    Algorithm 1 and {!preorder} pin one element, so they build one
    index per class representative and per entity respectively. An
    index is stored only once complete, so a query cut short by its
    budget leaves the context unchanged. A context is observationally
    immutable: pinned queries on it are independent of each other and
    of their order. Queries on one context must not run concurrently. *)

(** [make_context ~k d d'] precomputes the game between [d] and [d'].
    @raise Invalid_argument if [k < 1]. *)
val make_context : k:int -> Db.t -> Db.t -> context

(** [holds_ctx ctx ~pin] decides [(d, ā) →_k (d', b̄)] for the pinned
    pairs [pin = List.combine ā b̄] over a precomputed context. The
    first query on a pin domain builds its index, linear in the size
    of the position lattice. After that a query copies two flat arrays
    (one byte per position, one int per slot) and otherwise costs what
    the pin touches: the positions that pebble a pinned element with
    its pinned value, and the kill propagation those positions start. *)
val holds_ctx : context -> pin:(Elem.t * Elem.t) list -> bool

(** [holds ~k (d, as_) (d', bs)] decides [(d, ā) →_k (d', b̄)]. It
    builds a fresh context on every call; callers asking many pinned
    questions about one pair of databases should build it once with
    {!make_context} and query it with {!holds_ctx}.
    @raise Invalid_argument if [k < 1] or tuple lengths differ. *)
val holds : k:int -> Db.t * Elem.t list -> Db.t * Elem.t list -> bool

(** [holds1 ~k (d, a) (d', b)] is {!holds} on single points, with the
    same per-call context rebuild. *)
val holds1 : k:int -> Db.t * Elem.t -> Db.t * Elem.t -> bool

(** [boolean ~k d d'] is the unpointed game [d →_k d']. *)
val boolean : k:int -> Db.t -> Db.t -> bool

(** [preorder ~k d entities] is the matrix [m] with [m.(i).(j)]
    equal to [(d, e_i) →_k (d, e_j)]. This is the relation [≼] of
    Lemma 5.4 (with [e ≼ e'] iff [e' ∈ q_e(D)] iff
    [(D,e) →_k (D,e')]). Reflexivity and transitivity of [→_k] are
    exploited to prune game computations unless [transitive_pruning]
    is disabled (ablation knob; the result is identical). *)
val preorder :
  ?transitive_pruning:bool -> k:int -> Db.t -> Elem.t list -> bool array array

(** [equiv_classes ~k d entities] groups entities by mutual [→_k]
    (the classes [[e]] of Algorithm 2), returned with representatives
    first. *)
val equiv_classes : k:int -> Db.t -> Elem.t list -> Elem.t list list
