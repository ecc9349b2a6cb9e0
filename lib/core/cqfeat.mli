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
    With [?dim] the bounded-dimension variants Sep[ℓ] ({!Dim_sep})
    are used — exponential searches, as Theorem 6.6 demands. *)

(** [separable ?dim lang t] — [L]-Sep (or [L]-Sep[ℓ] when [dim] is
    given). *)
val separable : ?dim:int -> Language.t -> Labeling.training -> bool

(** [apx_separable ?dim ~eps lang t] — [L]-ApxSep (or [L]-ApxSep[ℓ]):
    may an [eps] fraction of the training entities be misclassified? *)
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

(** [min_dimension ?max_dim lang t] — least statistic dimension that
    separates [t] (bounded search). *)
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
