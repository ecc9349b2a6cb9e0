(** Preconditioned conjugate-gradient solver for l2- and
    smoothed-l1-regularized logistic regression — the margin-seeking
    half of the numeric separation tier.

    Minimizes, over weights [w] and bias [b] with labels in {±1}:

    {[ J(w,b) = l2·Σ w² + l1·Σ √(w² + l1_eps²) + Σ log(1 + exp(-y·(w·x + b))) ]}

    by Polak–Ribière+ nonlinear CG with a diagonal preconditioner and
    Armijo backtracking. On a separable instance the unregularized
    logistic loss pushes margins positive, so the minimizer is a
    strong separating-hyperplane candidate; the caller certifies it in
    exact arithmetic (see [Certify] in lib/linsep) rather than
    trusting the float answer. With [l1 > 0] the smoothed-l1 path
    drives irrelevant weights toward zero and {!support} reads off a
    small candidate statistic — the numeric side of the paper's
    dimension regularization.

    All reductions are fixed-order array loops: identical inputs give
    bit-identical trajectories (cqlint R6), and each iteration,
    line-search probe, and data-row pass ticks the ambient budget. *)

type config = {
  l2 : float;  (** ridge coefficient (keep [> 0] for strict convexity) *)
  l1 : float;  (** smoothed-l1 coefficient ([0] disables the path) *)
  l1_eps : float;  (** smoothing width of the [|w|] surrogate; [> 0] *)
  max_iters : int;  (** CG iteration cap *)
  tol : float;  (** sup-norm gradient stopping threshold *)
}

(** [{l2 = 1e-6; l1 = 0.0; l1_eps = 1e-3; max_iters = 200; tol = 1e-8}] *)
val default_config : config

type fit = {
  weights : float array;
  bias : float;
  iters : int;  (** iterations actually performed *)
  converged : bool;
      (** the gradient dropped below [tol] (or the objective went flat
          to double precision — further progress is not representable) *)
  objective : float;  (** final objective value *)
}

(** [fit ?config ~xs ~ys ()] minimizes the objective over the rows
    [xs] with labels [ys].
    @raise Invalid_argument on ragged rows, [|xs| <> |ys|], labels
    outside {±1}, [max_iters < 0], or [l1_eps <= 0]. *)
val fit : ?config:config -> xs:float array array -> ys:float array -> unit -> fit

(** [support ?threshold f] is the sorted list of coordinates whose
    fitted weight magnitude exceeds [threshold] (default 1e-6) — the
    candidate minimal separating statistic under the l1 path. *)
val support : ?threshold:float -> fit -> int list
