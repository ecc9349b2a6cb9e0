(** Exact certification of numeric separation answers.

    The float tier produces candidates; this module turns them into
    proofs, or declines. Nothing here ever trusts a float comparison:
    candidates cross into exact arithmetic through {!Rat.of_float}
    (exact on every finite double) and are re-derived from scratch.

    The three-way {!verdict} is the contract the graceful-degradation
    ladder is built on: [Certified] answers are final; [Refuted] and
    [Inconclusive] both send the caller to the exact solver, the
    difference being only diagnostic (the claim was exactly false
    vs. undecidable from the candidate). *)

type 'a verdict =
  | Certified of 'a
  | Refuted of string  (** the claim is exactly false as stated *)
  | Inconclusive of string  (** could not decide either way; escalate *)

val verdict_label : 'a verdict -> string

(** [hyperplane ~weights examples] checks whether the float weight
    direction separates, in exact arithmetic: the weights are lifted
    exactly and put over their common (power-of-two) denominator [d],
    every margin [Σ weights.(i)·b̄.(i)] is recomputed as an exact
    integer multiple of [1/d], and the direction certifies iff the
    largest negative-example margin is strictly below the smallest
    positive-example margin. The threshold is {e not} taken from the
    caller — it is a free normalization that float solvers get wrong
    by round-off, so [Certified c] carries the exact midpoint
    threshold instead. [Inconclusive] only on non-finite candidate
    entries.
    @raise Invalid_argument on an example/weights dimension mismatch. *)
val hyperplane :
  weights:float array ->
  Halfspace.example list ->
  Halfspace.classifier verdict

(** [farkas ~mu examples] certifies an infeasibility claim for the
    separation system (positive rows [(b̄,-1)·x ≥ 0], negative rows
    [(b̄,-1)·x ≤ -1]). Only the {e support} of the float multipliers
    [mu] (one per example, in example order) is used: the certificate
    is reconstructed as the exact one-dimensional nullspace of the
    supported constraint columns, oriented to [Σ λ·rhs > 0], and
    checked against the Farkas sign conditions ([λ ≥ 0] on positive
    rows, [λ ≤ 0] on negative rows). [Certified ()] therefore proves
    the collection is not separable; a numerically damaged candidate
    yields [Inconclusive] (wrong nullity, zero combination) or
    [Refuted] (sign violation), never a wrong proof.
    @raise Invalid_argument when [mu] and [examples] disagree in
    length, or on a dimension mismatch. *)
val farkas : mu:float array -> Halfspace.example list -> unit verdict
