(** Exact simplex over rationals.

    Linear programs with free (sign-unrestricted) variables, solved by
    the classic two-phase full-tableau simplex in exact {!Rat}
    arithmetic — Dantzig pricing while it makes progress, Bland's rule
    (no cycling) past a size-derived pivot threshold, and a hard pivot
    cap that turns any remaining non-termination into a structured
    {!Budget.Exhausted} failure. This is the stand-in for the
    polynomial-time LP oracle (Khachiyan/Karmarkar) that the paper
    invokes for linear-separability testing: worst-case exponential,
    but exact — no epsilon tuning — and fast at the scales of this
    library (see DESIGN.md, "Key algorithmic choices"). *)

type op = Le  (** [a·x ≤ b] *) | Ge  (** [a·x ≥ b] *) | Eq  (** [a·x = b] *)

type row = { coeffs : Rat.t array; op : op; rhs : Rat.t }

type outcome =
  | Optimal of Rat.t array * Rat.t
      (** assignment to the [nvars] free variables, objective value *)
  | Unbounded of Rat.t array
      (** a feasible point witnessing unboundedness of the objective *)
  | Infeasible

(** [solve ~nvars ~rows ~objective ()] minimizes [objective · x] subject
    to [rows]; all [nvars] variables are free. Every [coeffs] array and
    [objective] must have length [nvars]. Each pivot consumes one unit
    of the ambient fuel budget.
    @raise Invalid_argument on dimension mismatch.
    @raise Budget.Exhausted when the ambient budget or the internal
    pivot cap is exceeded (run it under {!Guard.run} for a total
    variant). *)
val solve : nvars:int -> rows:row list -> objective:Rat.t array -> unit -> outcome

(** [feasible ~nvars ~rows ()] finds any point satisfying [rows]. *)
val feasible : nvars:int -> rows:row list -> unit -> Rat.t array option

(** [check_solution ~rows x] verifies that [x] satisfies every row
    (exact arithmetic, used by tests and defensive callers). *)
val check_solution : rows:row list -> Rat.t array -> bool
