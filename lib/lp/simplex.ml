(* Two-phase full-tableau simplex, exact rationals.

   Internal standard form: free variable x_i is split into
   x_i = p_i - m_i with p_i, m_i >= 0; each constraint row gets a slack
   (Le: +s, Ge: -s) and, after sign-normalizing the right-hand side, an
   artificial variable for phase I.

   Pivoting uses Dantzig pricing (most negative reduced cost) while it
   is making progress and falls back to Bland's rule — which provably
   cannot cycle — once the pivot count passes a size-derived threshold,
   so degenerate LPs terminate. A hard per-phase pivot cap converts a
   would-be infinite loop into a structured Budget failure, and every
   pivot consumes one unit of the ambient fuel budget. *)

type op = Le | Ge | Eq
type row = { coeffs : Rat.t array; op : op; rhs : Rat.t }

type outcome =
  | Optimal of Rat.t array * Rat.t
  | Unbounded of Rat.t array
  | Infeasible

(* Tableau: [m] constraint rows over [n] columns plus rhs column; [t]
   has m+1 rows, the last being the objective row (reduced costs, with
   the negated objective value in the rhs cell). [basis.(i)] is the
   column basic in row i. *)
type tableau = {
  t : Rat.t array array;
  basis : int array;
  m : int;
  n : int;
}

let pivot tb ~row ~col =
  let { t; m; n; _ } = tb in
  let p = t.(row).(col) in
  assert (not (Rat.is_zero p));
  let inv = Rat.inv p in
  (* Zero entries of the pivot row stay zero and leave every other
     row's entry in their column unchanged, so both loops skip them. *)
  let prow = t.(row) in
  for j = 0 to n do
    Budget.tick ~what:"simplex: row normalization" ();
    if not (Rat.is_zero prow.(j)) then prow.(j) <- Rat.mul prow.(j) inv
  done;
  for i = 0 to m do
    if i <> row && not (Rat.is_zero t.(i).(col)) then begin
      let f = t.(i).(col) in
      for j = 0 to n do
        Budget.tick ~what:"simplex: row elimination" ();
        if not (Rat.is_zero prow.(j)) then
          t.(i).(j) <- Rat.sub t.(i).(j) (Rat.mul f prow.(j))
      done
    end
  done;
  tb.basis.(row) <- col

(* Entering column. Dantzig: most negative reduced cost (fast in
   practice, may cycle on degenerate LPs). Bland: least column with
   negative reduced cost (anti-cycling guarantee). Leaving row: min
   ratio, ties by least basis column. Returns `Optimal or `Unbounded
   with the offending column. *)
let entering_dantzig obj ~allowed n =
  let best = ref (-1) in
  let best_cost = ref Rat.zero in
  for j = 0 to n - 1 do
    Budget.tick ~what:"simplex: pricing" ();
    if allowed j && Rat.sign obj.(j) < 0
       && (!best < 0 || Rat.compare obj.(j) !best_cost < 0)
    then begin
      best := j;
      best_cost := obj.(j)
    end
  done;
  !best

let entering_bland obj ~allowed n =
  let entering = ref (-1) in
  (try
     for j = 0 to n - 1 do
       Budget.tick ~what:"simplex: pricing" ();
       if allowed j && Rat.sign obj.(j) < 0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  !entering

let rec iterate ?(pivots = ref 0) tb ~allowed =
  let { t; m; n; basis } = tb in
  (* Bland's rule cannot cycle, so switching to it after a burst of
     Dantzig pivots guarantees termination; the hard cap turns any
     remaining pathology (a bug, not degeneracy) into a structured
     failure instead of an endless loop. *)
  let bland_after = 64 + (4 * (m + n)) in
  let max_pivots = 10_000 + (200 * (m + n)) in
  let obj = t.(m) in
  let col =
    if !pivots < bland_after then entering_dantzig obj ~allowed n
    else entering_bland obj ~allowed n
  in
  if col < 0 then `Optimal
  else begin
    let best = ref None in
    for i = 0 to m - 1 do
      Budget.tick ~what:"simplex: ratio test" ();
      let a = t.(i).(col) in
      if Rat.sign a > 0 then begin
        let ratio = Rat.div t.(i).(n) a in
        match !best with
        | None -> best := Some (ratio, i)
        | Some (r, i') ->
            let c = Rat.compare ratio r in
            if c < 0 || (c = 0 && basis.(i) < basis.(i')) then
              best := Some (ratio, i)
      end
    done;
    match !best with
    | None -> `Unbounded col
    | Some (_, row) ->
        Budget.tick ~what:"simplex pivot" ();
        incr pivots;
        if !pivots > max_pivots then
          raise
            (Budget.Exhausted
               (Budget.Solver_error
                  (Printf.sprintf
                     "Simplex: pivot cap %d exceeded (cycling?)" max_pivots)));
        pivot tb ~row ~col;
        iterate ~pivots tb ~allowed
  end

(* Install objective [c] (length n) into the last row given the current
   basis: reduced costs c_j - c_B B^{-1} A_j. The tableau rows already
   hold B^{-1}A and B^{-1}b. *)
let set_objective tb c =
  let { t; m; n; basis } = tb in
  for j = 0 to n do
    Budget.tick ~what:"simplex: objective install" ();
    t.(m).(j) <- (if j < n then c.(j) else Rat.zero)
  done;
  for i = 0 to m - 1 do
    let cb = c.(basis.(i)) in
    if not (Rat.is_zero cb) then
      for j = 0 to n do
        Budget.tick ~what:"simplex: objective install" ();
        t.(m).(j) <- Rat.sub t.(m).(j) (Rat.mul cb t.(i).(j))
      done
  done

let solve ~nvars ~rows ~objective () =
  if Array.length objective <> nvars then
    invalid_arg "Simplex.solve: objective length mismatch";
  List.iter
    (fun r ->
      if Array.length r.coeffs <> nvars then
        invalid_arg "Simplex.solve: row length mismatch")
    rows;
  let rows = Array.of_list rows in
  let m = Array.length rows in
  (* Columns: 2*nvars split vars, then m slack slots (unused for Eq),
     then m artificials. *)
  let n_split = 2 * nvars in
  let n_slack = m in
  let n_art = m in
  let n = n_split + n_slack + n_art in
  let t = Array.init (m + 1) (fun _ -> Array.make (n + 1) Rat.zero) in
  let basis = Array.make m 0 in
  for i = 0 to m - 1 do
    let { coeffs; op; rhs } = rows.(i) in
    (* Row with slack, before sign normalization. *)
    let sign_flip = Rat.sign rhs < 0 in
    let put j v = t.(i).(j) <- (if sign_flip then Rat.neg v else v) in
    for v = 0 to nvars - 1 do
      Budget.tick ~what:"simplex: tableau setup" ();
      put (2 * v) coeffs.(v);
      put ((2 * v) + 1) (Rat.neg coeffs.(v))
    done;
    (match op with
    | Le -> put (n_split + i) Rat.one
    | Ge -> put (n_split + i) Rat.minus_one
    | Eq -> ());
    t.(i).(n) <- (if sign_flip then Rat.neg rhs else rhs);
    (* Artificial variable, basic in this row. *)
    let art = n_split + n_slack + i in
    t.(i).(art) <- Rat.one;
    basis.(i) <- art
  done;
  let tb = { t; basis; m; n } in
  (* Phase I: minimize the sum of artificials. *)
  let phase1_cost =
    Array.init n (fun j -> if j >= n_split + n_slack then Rat.one else Rat.zero)
  in
  set_objective tb phase1_cost;
  (match iterate tb ~allowed:(fun _ -> true) with
  | `Optimal -> ()
  | `Unbounded _ -> assert false (* phase-I objective is bounded below by 0 *));
  let phase1_value = Rat.neg t.(m).(n) in
  if Rat.sign phase1_value > 0 then Infeasible
  else begin
    (* Drive surviving artificials out of the basis where possible. *)
    for i = 0 to m - 1 do
      if basis.(i) >= n_split + n_slack then begin
        let found = ref false in
        for j = 0 to n_split + n_slack - 1 do
          Budget.tick ~what:"simplex: artificial drive-out" ();
          if (not !found) && not (Rat.is_zero t.(i).(j)) then begin
            pivot tb ~row:i ~col:j;
            found := true
          end
        done
        (* If no pivot exists the row is redundant (all-zero over real
           columns); leaving the artificial basic at value zero is
           harmless as long as it never re-enters. *)
      end
    done;
    let allowed j = j < n_split + n_slack in
    let phase2_cost =
      Array.init n (fun j ->
          if j < n_split then begin
            let v = j / 2 in
            if j land 1 = 0 then objective.(v) else Rat.neg objective.(v)
          end
          else Rat.zero)
    in
    set_objective tb phase2_cost;
    let extract () =
      let x = Array.make nvars Rat.zero in
      for i = 0 to m - 1 do
        Budget.tick ~what:"simplex: solution extraction" ();
        let b = basis.(i) in
        if b < n_split then begin
          let v = b / 2 in
          let contrib =
            if b land 1 = 0 then t.(i).(n) else Rat.neg t.(i).(n)
          in
          x.(v) <- Rat.add x.(v) contrib
        end
      done;
      x
    in
    match iterate tb ~allowed with
    | `Optimal -> Optimal (extract (), Rat.neg t.(m).(n))
    | `Unbounded _ -> Unbounded (extract ())
  end

let feasible ~nvars ~rows () =
  match solve ~nvars ~rows ~objective:(Array.make nvars Rat.zero) () with
  | Optimal (x, _) | Unbounded x -> Some x
  | Infeasible -> None

let check_solution ~rows x =
  List.for_all
    (fun { coeffs; op; rhs } ->
      let lhs = ref Rat.zero in
      Array.iteri
        (fun i c -> lhs := Rat.add !lhs (Rat.mul c x.(i)))
        coeffs;
      match op with
      | Le -> Rat.compare !lhs rhs <= 0
      | Ge -> Rat.compare !lhs rhs >= 0
      | Eq -> Rat.equal !lhs rhs)
    rows
