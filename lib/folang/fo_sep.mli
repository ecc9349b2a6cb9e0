(** Separability with FO feature queries (Section 8).

    FO has the dimension-collapse property (Prop 8.1): a training
    database is FO-separable iff a single FO feature separates it, and
    (Cor 8.2) the problem is GI-complete — equivalent to pairwise
    isomorphism of pointed databases: FO features cannot distinguish
    [e] from [e'] exactly when [(D,e) ≅ (D,e')].

    ∃FO⁺-separability collapses to CQ-separability (Prop 8.3(2)):
    two entities are ∃FO⁺-indistinguishable iff homomorphically
    equivalent. *)

(** [fo_separable t] decides FO-Sep: no oppositely-labeled pair of
    entities with [(D,e) ≅ (D,e')]. *)
val fo_separable : Labeling.training -> bool

(** [fo_inseparable_witness t] returns an oppositely-labeled isomorphic
    pair when FO-separation is impossible. *)
val fo_inseparable_witness : Labeling.training -> (Elem.t * Elem.t) option

(** [fo_classify t eval_db] solves FO-Cls: labels the entities of
    [eval_db] consistently with some FO statistic separating [t].
    Evaluation entities isomorphic to a training entity inherit its
    label; the others are grouped by isomorphism class and each fresh
    class gets [Neg] (any per-class choice is consistent).
    @raise Invalid_argument if [t] is not FO-separable. *)
val fo_classify : Labeling.training -> Db.t -> Labeling.t

(** [epfo_separable t] decides ∃FO⁺-Sep — equal to CQ-Sep: no
    oppositely-labeled homomorphically-equivalent pair. *)
val epfo_separable : Labeling.training -> bool

(** [iso_classes t] groups the training entities by isomorphism type of
    their pointed database — the finest partition any FO statistic can
    induce. *)
val iso_classes : Labeling.training -> Elem.t list list
