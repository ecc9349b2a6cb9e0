(** Separability with unrestricted CQ features.

    CQ-Sep is coNP-complete (Theorem 3.2, from Kimelfeld–Ré): a
    training database is CQ-separable iff no two oppositely-labeled
    entities are homomorphically equivalent ([(D,e) → (D,e')] and
    back). Unlike GHW(k), the canonical features here are
    polynomial-sized — [q_e] is simply the canonical CQ of the pointed
    database [(D,e)] — so feature generation and classification are
    effective (with NP-hard query evaluations inside, faithful to the
    combined complexity). *)

(** [hom_preorder db entities] is the matrix of
    [(D,e_i) → (D,e_j)]. *)
val hom_preorder : Db.t -> Elem.t list -> bool array array

(** [chain t] is the equivalence-class structure of the homomorphism
    preorder on [t]'s entities. *)
val chain : Labeling.training -> Preorder_chain.t

(** [separable t] decides CQ-Sep. *)
val separable : Labeling.training -> bool

(** [inseparable_witness t] returns an oppositely-labeled
    hom-equivalent pair when the database is not CQ-separable. *)
val inseparable_witness : Labeling.training -> (Elem.t * Elem.t) option

(** [generate t] produces a separating pair [(Π, Λ)] when one exists:
    [Π = (q_{e_1}, ..., q_{e_m})] with [q_{e_i}] the canonical CQ of
    [(D, e_i)] over class representatives in topological order, and
    [Λ] the explicit chain classifier. [minimize] core-reduces each
    feature. *)
val generate :
  ?minimize:bool -> Labeling.training -> (Statistic.t * Linsep.classifier) option

(** [classify t eval_db] solves CQ-Cls: labels the entities of
    [eval_db] consistently with a statistic separating [t].
    @raise Invalid_argument if [t] is not CQ-separable. *)
val classify : Labeling.training -> Db.t -> Labeling.t

(** [apx_relabel t] is the Algorithm-2 analogue for CQ: the
    hom-equivalence classes take their majority label; returns the
    CQ-separable relabeling and its (minimal) disagreement. *)
val apx_relabel : Labeling.training -> Labeling.t * int

(** [apx_separable ~eps t] decides CQ-ApxSep for error fraction
    [eps]. *)
val apx_separable : eps:Rat.t -> Labeling.training -> bool

(** How a {!decide_with_fallback} answer was obtained. *)
type provenance =
  | Exact  (** the exact CQ-Sep decision finished within budget *)
  | Degraded of Language.t
      (** the answer is for the named weaker language (a CQ[m] rung);
          a positive answer still certifies CQ-separability, a
          negative one only refutes the weaker language *)
  | Approximate of Rat.t
      (** the final rung: minimal misclassified fraction achievable
          with CQ[1] features; zero slack certifies separability *)
  | Gave_up of Guard.failure
      (** every rung exhausted its budget (or a rung failed with a
          non-resource error) *)

type ladder_result = {
  answer : bool option;  (** [None] iff the ladder gave up *)
  provenance : provenance;
}

val pp_provenance : Format.formatter -> provenance -> unit

(** [decide_with_fallback ?budget ?degrade ?runner t]
    runs the graceful-degradation ladder: exact CQ-Sep, then CQ[m] for
    [m] = 3, 2, 1, then approximate
    separability with reported slack. All rungs share [budget]'s
    absolute deadline; fuel is refilled per rung. With
    [degrade = false] (or on a non-resource failure) the ladder stops
    after the exact attempt and reports [Gave_up]. [runner] (default
    {!Guard.runner}) chooses the execution strategy per rung — pass
    [Isolate.runner ()] for hard process isolation, or wrap either in
    [Guard.retrying] for bounded budget-escalating retries. *)
val decide_with_fallback :
  ?budget:Budget.t -> ?degrade:bool -> ?runner:Guard.runner ->
  Labeling.training -> ladder_result
