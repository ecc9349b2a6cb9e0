(** Constructive FO feature generation (Prop 8.1 made effective).

    FO has the dimension-collapse property: a training database is
    FO-separable iff a {e single} FO feature separates it. This module
    materializes that feature as a concrete {!Fo_formula}: the
    disjunction, over the isomorphism classes of positively-labeled
    entities, of the {e diagram formula} of the class — the formula
    that pins down the pointed database up to isomorphism (existential
    witnesses for every other element, their distinctness, every
    present fact, the negation of every absent fact over the schema,
    and a domain-closure clause). Evaluating the feature on any
    database is exactly a pointed-isomorphism test, which the tests
    cross-check against {!Struct_iso}. *)

(** [diagram_formula (db, e)] is [φ(x)] with
    [φ(D', f)] true iff [(D', f) ≅ (db, e)]. Size is polynomial in
    [|dom(db)|^max_arity] (the negated-atom block). *)
val diagram_formula : Db.t * Elem.t -> Fo_formula.t

(** [generate t] is the single separating FO feature for an
    FO-separable training database: [Some φ] selecting exactly the
    entities isomorphic to a positive one; [None] if [t] is not
    FO-separable. *)
val generate : Labeling.training -> Fo_formula.t option

(** [classify_with_formula t eval_db] classifies by evaluating the
    generated feature ([Pos] iff selected) — provably equal to
    {!Fo_sep.fo_classify} when the latter defaults fresh classes to
    [Neg].
    @raise Invalid_argument if [t] is not FO-separable. *)
val classify_with_formula : Labeling.training -> Db.t -> Labeling.t
