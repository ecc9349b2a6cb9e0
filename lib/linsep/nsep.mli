(** Numeric-first linear separation with an exact-certification spine.

    Fast float solvers ({!Cg}, {!Fsimplex}) produce candidate answers;
    {!Certify} re-derives each claim in exact rational arithmetic; the
    exact {!Halfspace.separable} is the escalation of last resort. The
    module invariant: a [Sep]/[Unsep] verdict is only ever returned
    with an exact proof behind it — float arithmetic decides how fast
    and whether to escalate, never what the answer is.

    Escalation is deterministic: the float tier is abandoned when the
    simplex conditioning guard ({!Fsimplex.well_conditioned}), the
    margin-width guard, or an exact certification fails — all
    functions of the input alone. *)

type tier = Exact_only | Numeric

type provenance =
  | Certified_cg
      (** CG logistic candidate, certified by {!Certify.hyperplane} *)
  | Certified_simplex
      (** float simplex candidate (point or Farkas rows), certified *)
  | Certified_precheck
      (** answered by the exact consistency/triviality precheck *)
  | Exact_solve of string
      (** the exact simplex ran; the payload says why (tier choice or
          the numeric-tier failure that forced escalation) *)
  | Uncertified of string
      (** numeric tier failed and escalation was disabled *)

type verdict =
  | Sep of Halfspace.classifier  (** exact separating classifier *)
  | Unsep
  | Unknown of string  (** only reachable with [~escalate:false] *)

type answer = { verdict : verdict; provenance : provenance }

(** Monotone counters over all decisions since the last
    {!Runtime_state} reset (registered as ["nsep.stats"]). Increments
    are abort-atomic per decision: a chaos abort can lose a decision,
    never tear one. Every leaf that {!Linsep.min_errors_exact} decides
    is one decision here, so an ApxSep search shows up as its leaf
    count. *)
type stats = {
  decided : int;
  certified_cg : int;
  certified_simplex : int;
  certified_precheck : int;
  exact_solves : int;
  escalations : int;
      (** exact solves entered from a failed numeric tier (subset of
          [exact_solves]) *)
  uncertified : int;
}

(** Snapshot of the counters. *)
val stats : unit -> stats

(** Ambient default tier (initially [Numeric]; registered as
    ["nsep.tier"]). The CLI's [--exact-only] uses {!set_tier}. *)
val set_tier : tier -> unit

val current_tier : unit -> tier

(** [decide ?tier ?escalate examples] decides linear separability.
    [tier] defaults to the ambient tier. With [escalate] (default
    [true]) a failed numeric tier falls back to the exact solver and
    [Unknown] is unreachable; with [~escalate:false] the failure
    surfaces as [Unknown] with the guard/certification reason. *)
val decide : ?tier:tier -> ?escalate:bool -> Halfspace.example list -> answer

(** [decide_with_fallback ?budget ?runner ?tier examples] is the
    graceful-degradation ladder in the style of
    [Cq_sep.decide_with_fallback]: the numeric rung runs with
    escalation off, and on [Unknown] or a resource failure the exact
    rung runs under fresh fuel ({!Budget.refresh}) with the same
    deadline. [runner] (default {!Guard.runner}) decides how each rung
    executes — in-process, isolated, or retrying. *)
val decide_with_fallback :
  ?budget:Budget.t ->
  ?runner:Guard.runner ->
  ?tier:tier ->
  Halfspace.example list ->
  (answer, Guard.failure) result

(** [separable examples] is a drop-in for {!Halfspace.separable} routed
    through {!decide} (ambient tier, escalation on): same
    [classifier option] contract, same exact guarantees, numeric
    speed when the tier allows. *)
val separable : Halfspace.example list -> Halfspace.classifier option

(** [is_separable examples] is [separable examples <> None]. *)
val is_separable : Halfspace.example list -> bool
