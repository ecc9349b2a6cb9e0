(* Preconditioned nonlinear conjugate gradient for regularized
   logistic regression over dense float rows.

   Objective, over weights w and bias b with labels y_i ∈ {+1,-1}:

     J(w,b) = l2·Σ w_j²  +  l1·Σ √(w_j² + l1_eps²)
            + Σ_i log(1 + exp(-y_i·(w·x_i + b)))

   The √(w²+ε²) term is the standard smooth surrogate for |w|: as the
   regularization path drives l1 up, weights collapse toward zero and
   [support] reads off the surviving coordinates — the
   minimal-separating-statistic side of the paper's dimension
   regularization (L-Sep[ℓ]), done numerically.

   The method is Polak–Ribière+ CG with a diagonal preconditioner and
   Armijo backtracking. Everything is a fixed-order loop over arrays:
   given the same input the trajectory is bit-for-bit reproducible
   (cqlint R6), and every iteration ticks the ambient budget. *)

type config = {
  l2 : float;
  l1 : float;
  l1_eps : float;  (* smoothing width of the |w| surrogate *)
  max_iters : int;
  tol : float;  (* sup-norm gradient stopping threshold *)
}

let default_config =
  { l2 = 1e-6; l1 = 0.0; l1_eps = 1e-3; max_iters = 200; tol = 1e-8 }

type fit = {
  weights : float array;
  bias : float;
  iters : int;
  converged : bool;  (* gradient dropped below [tol] *)
  objective : float;
}

(* log(1 + exp z) without overflow: for large z the 1 is invisible. *)
let log1p_exp z = if z > 35.0 then z else Float.log1p (Float.exp z)

(* σ(z) = 1/(1+exp(-z)), computed from the negative side for stability. *)
let sigmoid z =
  if z >= 0.0 then 1.0 /. (1.0 +. Float.exp (-.z))
  else begin
    let e = Float.exp z in
    e /. (1.0 +. e)
  end

let dot d (xs : float array) v =
  let s = ref 0.0 in
  (* cqlint: allow R1 — dot product bounded by the feature dimension *)
  for j = 0 to d - 1 do
    s := !s +. (xs.(j) *. v.(j))
  done;
  !s

let validate ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Cg.fit: |xs| <> |ys|";
  let d = if n = 0 then 0 else Array.length xs.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> d then invalid_arg "Cg.fit: ragged feature rows")
    xs;
  Array.iter
    (fun y ->
      if y <> 1.0 && y <> -1.0 then invalid_arg "Cg.fit: labels must be ±1")
    ys;
  (n, d)

let fit ?(config = default_config) ~xs ~ys () =
  if config.max_iters < 0 then invalid_arg "Cg.fit: max_iters < 0";
  if config.l1_eps <= 0.0 then invalid_arg "Cg.fit: l1_eps must be > 0";
  let n, d = validate ~xs ~ys in
  let { l2; l1; l1_eps; max_iters; tol } = config in
  (* Variable vector v = (w_0..w_{d-1}, bias) of length d+1. *)
  let dim = d + 1 in
  let v = Array.make dim 0.0 in
  let margin i v =
    Budget.tick ~what:"cg: margin" ();
    dot d xs.(i) v +. v.(d)
  in
  let objective v =
    let s = ref 0.0 in
    (* cqlint: allow R1 — regularizer sum bounded by the dimension *)
    for j = 0 to d - 1 do
      s :=
        !s
        +. (l2 *. v.(j) *. v.(j))
        +. (l1 *. Float.sqrt ((v.(j) *. v.(j)) +. (l1_eps *. l1_eps)))
    done;
    for i = 0 to n - 1 do
      s := !s +. log1p_exp (-.ys.(i) *. margin i v)
    done;
    !s
  in
  let gradient v g =
    (* cqlint: allow R1 — regularizer gradient bounded by the dimension *)
    for j = 0 to d - 1 do
      g.(j) <-
        (2.0 *. l2 *. v.(j))
        +. (l1 *. v.(j)
            /. Float.sqrt ((v.(j) *. v.(j)) +. (l1_eps *. l1_eps)))
    done;
    g.(d) <- 0.0;
    for i = 0 to n - 1 do
      let c = -.ys.(i) *. sigmoid (-.ys.(i) *. margin i v) in
      for j = 0 to d - 1 do
        g.(j) <- g.(j) +. (c *. xs.(i).(j))
      done;
      g.(d) <- g.(d) +. c
    done
  in
  (* Diagonal preconditioner: curvature upper bound 0.25·Σ x_ij² from
     the logistic term plus the regularizer's constant part. *)
  let precond =
    let p = Array.make dim ((2.0 *. l2) +. (l1 /. l1_eps)) in
    for i = 0 to n - 1 do
      Budget.tick ~what:"cg: preconditioner row" ();
      (* cqlint: allow R1 — preconditioner sum bounded by the dimension *)
      for j = 0 to d - 1 do
        p.(j) <- p.(j) +. (0.25 *. xs.(i).(j) *. xs.(i).(j))
      done;
      p.(d) <- p.(d) +. 0.25
    done;
    Array.map (fun c -> 1.0 /. Float.max c 1e-12) p
  in
  let g = Array.make dim 0.0 in
  let g_prev = Array.make dim 0.0 in
  let dir = Array.make dim 0.0 in
  let trial = Array.make dim 0.0 in
  let sup_norm a =
    let m = ref 0.0 in
    (* cqlint: allow R1 — norm scan bounded by the dimension *)
    for j = 0 to dim - 1 do
      m := Float.max !m (Float.abs a.(j))
    done;
    !m
  in
  let obj = ref (objective v) in
  gradient v g;
  let iters = ref 0 in
  let converged = ref (sup_norm g <= tol) in
  (try
     while (not !converged) && !iters < max_iters do
       Budget.tick ~what:"cg: iteration" ();
       (* Direction: preconditioned steepest descent on the first
          iteration and after restarts; PR+ conjugacy otherwise. *)
       let beta =
         if !iters = 0 then 0.0
         else begin
           let num = ref 0.0 and den = ref 0.0 in
           for j = 0 to dim - 1 do
             num := !num +. (precond.(j) *. g.(j) *. (g.(j) -. g_prev.(j)));
             den := !den +. (precond.(j) *. g_prev.(j) *. g_prev.(j))
           done;
           if !den <= 0.0 then 0.0 else Float.max 0.0 (!num /. !den)
         end
       in
       let descent = ref 0.0 in
       for j = 0 to dim - 1 do
         dir.(j) <- (-.precond.(j) *. g.(j)) +. (beta *. dir.(j));
         descent := !descent +. (dir.(j) *. g.(j))
       done;
       if !descent >= 0.0 then begin
         (* Not a descent direction: restart on preconditioned
            steepest descent. *)
         descent := 0.0;
         for j = 0 to dim - 1 do
           dir.(j) <- -.precond.(j) *. g.(j);
           descent := !descent +. (dir.(j) *. g.(j))
         done
       end;
       if !descent >= 0.0 then begin
         (* Gradient numerically zero in the preconditioned metric. *)
         converged := true;
         raise Exit
       end;
       (* Armijo backtracking from a unit step. *)
       let step = ref 1.0 in
       let accepted = ref false in
       let backtracks = ref 0 in
       while (not !accepted) && !backtracks <= 40 do
         Budget.tick ~what:"cg: line search" ();
         (* cqlint: allow R1 — trial point bounded by the dimension *)
         for j = 0 to dim - 1 do
           trial.(j) <- v.(j) +. (!step *. dir.(j))
         done;
         let obj' = objective trial in
         if obj' <= !obj +. (1e-4 *. !step *. !descent) then begin
           accepted := true;
           obj := obj';
           Array.blit trial 0 v 0 dim
         end
         else begin
           step := !step *. 0.5;
           incr backtracks
         end
       done;
       if not !accepted then begin
         (* Line search stalled: the objective is flat to double
            precision along every useful direction. *)
         converged := true;
         raise Exit
       end;
       Array.blit g 0 g_prev 0 dim;
       gradient v g;
       incr iters;
       if sup_norm g <= tol then converged := true
     done
   with Exit -> ());
  {
    weights = Array.sub v 0 d;
    bias = v.(d);
    iters = !iters;
    converged = !converged;
    objective = !obj;
  }

let support ?(threshold = 1e-6) fit =
  let out = ref [] in
  for j = Array.length fit.weights - 1 downto 0 do
    Budget.tick ~what:"cg: support scan" ();
    if Float.abs fit.weights.(j) > threshold then out := j :: !out
  done;
  !out
