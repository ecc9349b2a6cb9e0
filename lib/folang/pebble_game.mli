(** The k-pebble Ehrenfeucht–Fraïssé game: FO_k-equivalence.

    Section 8 of the paper shows that FO_k — first-order logic
    restricted to [k] variables — has the dimension-collapse property
    (Corollary 8.5), so FO_k-Sep reduces to pairwise
    FO_k-equivalence of pointed databases, decided here by the classic
    k-pebble game on finite structures: Spoiler repeatedly places or
    moves one of [k] pebble pairs on either structure, Duplicator
    answers on the other side, and the pebbled correspondence (plus
    the pinned tuple) must stay a partial isomorphism. Duplicator wins
    the infinite game iff the structures agree on all FO sentences
    with at most [k] variables.

    Decision: greatest fixpoint over partial isomorphisms of size ≤ k
    with single-step forth {e and} back conditions plus restriction
    closure — polynomial in [(|A|·|B|)^k] for fixed [k]. *)

(** [equivalent ~k (a, ā) (b, b̄)] decides
    [(A, ā) ≡_{FO_k} (B, b̄)].
    @raise Invalid_argument if [k < 1] or tuple lengths differ. *)
val equivalent : k:int -> Db.t * Elem.t list -> Db.t * Elem.t list -> bool

(** [fok_separable ~k t] decides FO_k-Sep: no oppositely-labeled
    FO_k-equivalent entity pair (dimension collapse makes pairwise
    testing complete, as for FO). *)
val fok_separable : k:int -> Labeling.training -> bool

(** [fok_inseparable_witness ~k t] returns an offending pair when not
    separable. *)
val fok_inseparable_witness :
  k:int -> Labeling.training -> (Elem.t * Elem.t) option

(** [fok_classify ~k t eval_db] — FO_k-Cls by equivalence class:
    evaluation entities FO_k-equivalent to a training entity inherit
    its label, fresh classes default to [Neg] (any class-constant
    choice is consistent, since every ≡_k-class of pointed finite
    structures is FO_k-definable).
    @raise Invalid_argument if [t] is not FO_k-separable. *)
val fok_classify : k:int -> Labeling.training -> Db.t -> Labeling.t
