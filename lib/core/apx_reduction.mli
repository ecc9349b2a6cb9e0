(** The padding reduction from exact to approximate separability
    (Proposition 7.1): for every fixed ε ∈ [0, 1/2), [L]-Sep reduces in
    polynomial time to (L, ε)-ApxSep.

    Construction: replicate the training database [t] times as disjoint
    isomorphic copies (copies of an entity are indistinguishable by any
    CQ, so a classifier errs on them in blocks of [t]) and add [s]
    mutually-indistinguishable padding entities (each with a single
    fact over a fresh unary relation [pad]), labeled half positive and
    half negative so that any classifier is forced to err on exactly
    [s/2] of them. The parameters satisfy

    [s/2 ≤ budget < s/2 + t]  where  [budget = ⌊ε·(t·n + s)⌋],

    so the ε-budget is consumed by the forced padding errors and no
    original entity (cost [t] ≥ budget − s/2 + 1) may be misclassified:
    the padded instance is [L]-separable with error ε iff the original
    is [L]-separable exactly. *)

type padded = {
  training : Labeling.training;  (** the padded training database *)
  eps : Rat.t;  (** the fixed error fraction the reduction targets *)
  copies : int;  (** t: number of disjoint copies *)
  padding : int;  (** s: number of padding entities *)
  budget : int;  (** ⌊ε·|η|⌋ of the padded instance *)
}

(** [pad ~eps t] builds the reduction instance.
    @raise Invalid_argument unless [0 ≤ eps < 1/2]. *)
val pad : eps:Rat.t -> Labeling.training -> padded

(** [copy_element ~copy e] is the renamed element of [e] in copy
    [copy] (for tests inspecting the construction). *)
val copy_element : copy:int -> Elem.t -> Elem.t
