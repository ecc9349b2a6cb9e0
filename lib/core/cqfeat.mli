(** Unified entry point: the separability, feature-generation,
    classification and approximate-separability problems of
    "Regularizing Conjunctive Features for Classification" (PODS 2019),
    dispatching on the feature language.

    The per-language engines (with their complexity profiles, faithful
    to Table 1 of the paper):
    - {!Language.Cq_all} / {!Language.Epfo} — hom-equivalence machinery
      ({!Cq_sep}); Sep is coNP-flavored, generation polynomial-size.
    - {!Language.Cq_atoms} — enumeration + LP ({!Atoms_sep}); FPT in
      the arity.
    - {!Language.Ghw} — cover-game machinery ({!Ghw_sep}); Sep/Cls in
      PTIME, generation exponential.
    - {!Language.Fo} — isomorphism machinery ({!Fo_sep});
      GI-complete, dimension collapses to 1.
    With [?dim] each problem delegates to its bounded-dimension variant
    in {!Dim_sep} — one combination search over realizable indicator
    sets, exponential as Theorem 6.6 demands — except for [Fo]/[Fo_k],
    whose dimension collapses to 1 (Prop 8.1 / Cor 8.5): there [dim]
    only requires [dim ≥ 1]. *)

(** [separable ?dim lang t] — [L]-Sep (or [L]-Sep[ℓ] when [dim] is
    given). *)
val separable : ?dim:int -> Language.t -> Labeling.training -> bool

(** [apx_separable ?dim ~eps lang t] — [L]-ApxSep (or [L]-ApxSep[ℓ]):
    may an [eps] fraction of the training entities be misclassified
    ({!Atoms_sep.error_budget})? With [dim] this is
    {!Dim_sep.min_errors_with_sets} over {!Dim_sep.realizable_sets}
    (Prop 7.3(3)); for [Fo]/[Fo_k] it is the majority relabeling of
    the classes of indistinguishable entities, with or without [dim]. *)
val apx_separable : ?dim:int -> eps:Rat.t -> Language.t -> Labeling.training -> bool

(** [generate ?ghw_depth ?dim lang t] — feature generation: a statistic
    and classifier separating [t], when they exist. For [Ghw k] the
    features are depth-[ghw_depth] (default 2) unravelings — consult
    {!Unravel.node_count} before raising the depth. With [dim] the
    statistic has at most [dim] features, realized through QBE
    explanations ({!Dim_sep.generate}).
    @raise Budget.Exhausted with [Solver_error] for [Fo]/[Fo_k] (FO
    features are not CQs; FO separability/classification never needs
    materialized features here). *)
val generate :
  ?ghw_depth:int -> ?dim:int -> Language.t -> Labeling.training ->
  (Statistic.t * Linsep.classifier) option

(** [classify ?dim lang t eval_db] — [L]-Cls (or [L]-Cls[ℓ] with
    [dim]): label the entities of [eval_db] consistently with some
    separating statistic for [t]. For [Ghw k] without [dim] this is
    Algorithm 1 and materializes nothing; with [dim] a ≤[dim]-feature
    statistic is generated and applied.
    @raise Budget.Exhausted with [Solver_error] if [t] is not
    [L]-separable (within the bound). *)
val classify : ?dim:int -> Language.t -> Labeling.training -> Db.t -> Labeling.t

(** [apx_classify ~eps lang t eval_db] — [L]-ApxCls: labeling of
    [eval_db] plus the training error incurred.
    @raise Budget.Exhausted with [Solver_error] if [t] is not
    [L]-separable with error [eps], or for [Fo]. *)
val apx_classify :
  eps:Rat.t -> Language.t -> Labeling.training -> Db.t -> Labeling.t * int

(** [min_dimension ?max_dim lang t] — [L]-Sep[*]: the least statistic
    dimension that separates [t], up to [max_dim] (default [|η(D)|]);
    see {!Dim_sep.min_dimension}. *)
val min_dimension : ?max_dim:int -> Language.t -> Labeling.training -> int option

(** [generate_b ?budget ?ghw_depth ?dim lang t] is {!generate} under
    [budget] (default: the ambient budget); resource exhaustion becomes
    a structured [Error]. Other callers run the plain functions under
    {!Guard.run} themselves; this twin stays only because the pipeline
    benchmark calls it, and goes with the next change to that
    benchmark. *)
val generate_b :
  ?budget:Budget.t -> ?ghw_depth:int -> ?dim:int -> Language.t ->
  Labeling.training ->
  ((Statistic.t * Linsep.classifier) option, Guard.failure) result
