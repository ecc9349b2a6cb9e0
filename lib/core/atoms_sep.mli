(** Separability with a bounded number of feature atoms (Section 4 and
    Sections 6.3/7.2 of the paper).

    The decision procedure is the constructive one of Proposition 4.1:
    materialize the statistic [Π_all] of {e all} feature queries in
    CQ[m] (resp. CQ[m,p]) over the relation symbols of the data, map
    entities to vectors, and test linear separability by LP. The
    running time is [|D|^c · 2^{q(k)}] — polynomial in the data for a
    fixed maximal arity [k], exponential in [k] — which is exactly the
    FPT shape of Corollary 4.2 that the `prop41` benches sweep.
    Everything here is constructive, so feature generation and
    classification (and their approximate variants) come for free. *)

(** [all_features ~m ?p db] is the statistic of all CQ[m] (or CQ[m,p])
    feature queries over the relations of [db], up to isomorphism. *)
val all_features : m:int -> ?p:int -> Db.t -> Statistic.t

(** [pruned_columns ~m ?p db] is the first feature of {!all_features}
    for each distinct indicator column over [Db.entities db], with that
    column: one {!Eval_engine.columns} pass over the enumerated list's
    memoized batch ({!Cq_enum.feature_batch}). *)
val pruned_columns : m:int -> ?p:int -> Db.t -> (Cq.t * Eval_engine.column) list

(** [pruned_features ~m ?p t] drops features whose indicator column
    over the training entities duplicates an earlier one — an
    equivalence-preserving (for separability of [t]) reduction: the
    features of {!pruned_columns}. *)
val pruned_features : m:int -> ?p:int -> Labeling.training -> Statistic.t

(** [separable ~m ?p t] decides CQ[m]-Sep (CQ[m,p]-Sep with [p]). *)
val separable : m:int -> ?p:int -> Labeling.training -> bool

(** [generate ~m ?p t] returns a separating pair [(Π, Λ)] built from
    the pruned full statistic, its examples read off the kept columns. *)
val generate :
  m:int -> ?p:int -> Labeling.training -> (Statistic.t * Linsep.classifier) option

(** [classify ~m ?p t eval_db] — CQ[m]-Cls: labels [eval_db] by the
    generated pair.
    @raise Invalid_argument if [t] is not CQ[m]-separable. *)
val classify : m:int -> ?p:int -> Labeling.training -> Db.t -> Labeling.t

(** [min_errors ~m ?p ?cap t] is the minimum training error achievable
    with CQ[m] features — the CQ[m]-ApxSep objective. NP-hard in the
    data (Prop 7.2(2)); exact search, optionally capped. *)
val min_errors :
  m:int -> ?p:int -> ?cap:int -> Labeling.training ->
  (int * Statistic.t * Linsep.classifier) option

(** [error_budget ~eps n] is the largest integer [≤ eps·n]: the number
    of the [n] training entities an [eps]-ApxSep classifier may
    misclassify. *)
val error_budget : eps:Rat.t -> int -> int

(** [apx_separable ~m ?p ~eps t] decides CQ[m]-ApxSep. *)
val apx_separable : m:int -> ?p:int -> eps:Rat.t -> Labeling.training -> bool

(** [apx_classify ~m ?p ~eps t eval_db] — CQ[m]-ApxCls: classify with a
    statistic and classifier achieving minimal training error; returns
    the labeling and that error.
    @raise Invalid_argument if no classifier meets the [eps] budget. *)
val apx_classify :
  m:int -> ?p:int -> eps:Rat.t -> Labeling.training -> Db.t -> Labeling.t * int

(** [min_errors_b ?budget ~m ?p ?cap t] is {!min_errors} under
    [budget] (default: the ambient budget); resource exhaustion becomes
    a structured [Error]. Other callers run the plain functions under
    {!Guard.run} themselves; this twin stays only because the pipeline
    benchmark calls it, and goes with the next change to that
    benchmark. *)
val min_errors_b :
  ?budget:Budget.t -> m:int -> ?p:int -> ?cap:int -> Labeling.training ->
  ((int * Statistic.t * Linsep.classifier) option, Guard.failure) result
