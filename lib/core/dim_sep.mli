(** Separability with statistics of bounded dimension (Section 6).

    The engine is the (L, ℓ)-separability test of Lemma 6.3, organized
    around {e realizable indicator sets}: a set [S ⊆ η(D)] is
    [L]-realizable when some [q ∈ L] has [q(D) = S] — which is exactly
    the QBE question for [(D, S, η(D)∖S)]. A training database is
    [L]-separable by at most [ℓ] features iff some ≤ℓ realizable sets
    give linearly separable vectors.

    For [CQ[m]] the realizable sets come from enumeration (NP-complete
    overall, Theorem 6.10); for [CQ] and [GHW(k)] every subset of
    [η(D)] is tested through the product-based QBE criteria —
    exponentially many subsets, matching the
    coNEXPTIME/EXPTIME-completeness of Theorem 6.6. Keep [|η(D)|]
    small.

    Also provided: the polynomial-time reduction of Lemma 6.5 from QBE
    to [L]-Sep[ℓ]. *)

(** [realizable_sets lang t] is the distinct nonempty [L]-realizable
    indicator sets over [t]'s entities (the empty set is excluded: a
    constantly-negative feature never helps separation). [Epfo] gets
    [Cq_all]'s sets: ∃FO⁺ is treated as CQ throughout, which Prop
    8.3(2) justifies for Sep; a union of CQs, one ∃FO⁺ feature, can
    realize sets no CQ does, so bounded-dimension answers for [Epfo]
    are CQ's.
    @raise Budget.Exhausted with [Solver_error] for [Fo]/[Fo_k] (use
    {!Fo_sep}/{!Pebble_game}; FO dimension collapses anyway, Prop 8.1 /
    Cor 8.5). *)
val realizable_sets : Language.t -> Labeling.training -> Elem.Set.t list

(** The searches below share one enumeration: the candidate [sets] are
    turned into ±1 columns over [t]'s entities, deduplicated up to
    complement, and every choice of at most [dim] of them is visited by
    ascending size, lexicographically within a size, each choice
    decided by an LP. *)

(** [witness_with_sets ~dim ~sets t] is the first choice of at most
    [dim] candidate [sets] that makes [t]'s labeling linearly separable
    ({!Nsep.separable}, exactly certified), with its classifier; [None]
    if there is none. Sizes ascend, so the witness has the fewest sets
    of any. *)
val witness_with_sets :
  dim:int -> sets:Elem.Set.t list -> Labeling.training ->
  (Elem.Set.t list * Linsep.classifier) option

(** [min_errors_with_sets ~dim ~sets ?cap t] is the minimum training
    error over statistics of at most [dim] of the candidate [sets],
    with the first choice and classifier that attain it — the
    ApxSep[ℓ] objective (Prop 7.3(3)). Each choice runs
    {!Linsep.min_errors_exact} capped one below the best error so far;
    the search stops at error 0. [cap] (default [|η(D)|]) bounds the
    acceptable error: [None] when no choice is within it. *)
val min_errors_with_sets :
  dim:int -> sets:Elem.Set.t list -> ?cap:int -> Labeling.training ->
  (int * Elem.Set.t list * Linsep.classifier) option

(** [separable ~dim lang t] decides [L]-Sep[ℓ] with [ℓ = dim]:
    {!witness_with_sets} over {!realizable_sets}, or the dimension
    collapse for [Fo]/[Fo_k] (separable at all, and [dim ≥ 1]). *)
val separable : dim:int -> Language.t -> Labeling.training -> bool

(** [realize_set ?ghw_depth_cap lang t s] materializes a feature query
    of [lang] whose indicator set over [t]'s training database is
    exactly [s] — the constructive step behind the (L,ℓ)-separability
    test. For [Ghw k] the query is an unraveling of the positive
    product, deepened until the indicator matches (or [None] past the
    cap). *)
val realize_set :
  ?ghw_depth_cap:int -> Language.t -> Labeling.training -> Elem.Set.t ->
  Cq.t option

(** [generate ?ghw_depth_cap ~dim lang t] — bounded-dimension feature
    generation: a statistic of at most [dim] features of [lang] and a
    separating classifier, when they exist.
    @raise Budget.Exhausted with [Solver_error] if a chosen set resists
    materialization within the depth cap (GHW only). *)
val generate :
  ?ghw_depth_cap:int -> dim:int -> Language.t -> Labeling.training ->
  (Cq.t list * Linsep.classifier) option

(** [min_dimension ?max_dim lang t] is the least dimension separating
    [t] — [L]-Sep[*] — searching up to [max_dim] (default [|η(D)|]);
    [None] if no dimension up to the bound suffices. It is the size of
    {!witness_with_sets}'s witness with [dim = max_dim], over
    {!realizable_sets} computed once. For [Fo]/[Fo_k] it is [Some 1]
    iff [max_dim ≥ 1] and [t] is separable at all. *)
val min_dimension : ?max_dim:int -> Language.t -> Labeling.training -> int option

(** [qbe_to_sep ~l inst] is the Lemma 6.5 reduction: builds a training
    database over the schema extended with [ℓ-1] fresh unary symbols
    [kappa_i] and fresh constants [cminus, c_1, ..., c_{ℓ-1}] such that
    [inst] has an [L]-explanation iff the result is [L]-separable by a
    statistic with at most [l] features. Requires the lemma's input
    restriction [S⁻ = dom(D) ∖ S⁺] (entities aside).
    @raise Budget.Exhausted with [Solver_error] if [l < 1]. *)
val qbe_to_sep : l:int -> Qbe.instance -> Labeling.training
