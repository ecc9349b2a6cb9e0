(** Phase-I simplex over native floats: the fast, uncertified half of
    the numeric separation tier.

    Same standard form and pivoting discipline as the exact {!Simplex}
    (Dantzig then Bland, hard pivot cap, cooperative {!Budget.tick}s),
    but with double-precision tableau cells and an epsilon dead zone
    in pricing. Answers are {e candidates}: a [Feasible] point or an
    [Infeasible] Farkas multiplier vector must be re-checked in exact
    arithmetic (see [Certify] in lib/linsep) before anyone believes
    it. The [quality] record carries the conditioning signals the
    caller's escalation guards key on. *)

type row = { coeffs : float array; op : Simplex.op; rhs : float }

type quality = {
  pivots : int;  (** pivot steps performed *)
  min_pivot : float;  (** smallest pivot magnitude used (1.0 if none) *)
  growth : float;
      (** max tableau entry magnitude seen, relative to the initial
          tableau — the classic element-growth conditioning proxy *)
  residual : float;
      (** final phase-I objective value: the unresolved infeasibility
          gap (0 means a clean basic feasible solution) *)
}

type outcome =
  | Feasible of float array * quality
      (** a candidate point, one value per variable *)
  | Infeasible of float array * quality
      (** candidate Farkas multipliers, one per input row in input
          order: for Ge rows the multiplier should be [>= 0], for Le
          rows [<= 0], with [Σ mu_i·coeffs_i = 0] and
          [Σ mu_i·rhs_i > 0] — properties the exact certifier
          re-derives rather than trusts *)

(** [well_conditioned q] is the deterministic escalation guard: [false]
    when element growth exceeded 1e8 or some pivot magnitude fell below
    1e-7 — tableaux past those thresholds have lost too many digits for
    their verdicts to be worth certifying. *)
val well_conditioned : quality -> bool

(** [feasible ~nvars ~rows ()] decides (numerically) whether the rows
    admit a solution over [nvars] free variables.
    @raise Invalid_argument on a row length mismatch or a non-finite
    coefficient. *)
val feasible : nvars:int -> rows:row list -> unit -> outcome
