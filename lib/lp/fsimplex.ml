(* Phase-I full-tableau simplex over native floats.

   Same standard form as the exact {!Simplex} (free variables split
   into p - m, a slack per row, sign-normalized right-hand sides,
   phase-I artificials), but every tableau cell is a double. This
   solver only answers feasibility — that is all the separation
   pipeline needs — and it never answers alone: a [Feasible] point or
   an [Infeasible] Farkas row combination is only a *candidate* until
   the Certify layer re-checks it in exact rationals, so float
   round-off can cost an escalation but never a wrong verdict.

   For that hand-off the solver reports, besides the answer:
   - on infeasibility, one multiplier per original row, recovered from
     the phase-I objective row over the artificial columns (the dual
     prices y_i = 1 - objrow[art_i], mapped back through the rhs sign
     flips) — the support the exact Farkas reconstruction starts from;
   - a [quality] record (entry growth, smallest pivot magnitude) that
     the caller's condition guards use to escalate deterministically
     instead of trusting a numerically shaky tableau. *)

type row = { coeffs : float array; op : Simplex.op; rhs : float }

type quality = {
  pivots : int;  (* pivot steps performed *)
  min_pivot : float;  (* smallest |pivot element| used *)
  growth : float;  (* max |entry| seen / max(1, initial max |entry|) *)
  residual : float;  (* phase-I objective at the end: infeasibility gap *)
}

type outcome =
  | Feasible of float array * quality
  | Infeasible of float array * quality
      (* Farkas multipliers, one per input row, in input order *)

(* Reduced costs within [eps] of zero count as zero: pricing and the
   ratio test need a dead zone or round-off pivots forever. *)
let eps = 1e-9

let well_conditioned q =
  q.pivots >= 0 && q.growth <= 1e8
  && (q.pivots = 0 || Float.abs q.min_pivot >= 1e-7)

type tableau = {
  t : float array array;
  basis : int array;
  m : int;
  n : int;
  mutable max_entry : float;
  mutable min_piv : float;
  mutable pivot_count : int;
}

let scan_growth tb =
  let { t; m; n; _ } = tb in
  for i = 0 to m do
    for j = 0 to n do
      Budget.tick ~what:"fsimplex: growth scan" ();
      let a = Float.abs t.(i).(j) in
      if a > tb.max_entry then tb.max_entry <- a
    done
  done

let pivot tb ~row ~col =
  let { t; m; n; _ } = tb in
  let p = t.(row).(col) in
  let ap = Float.abs p in
  if ap < tb.min_piv then tb.min_piv <- ap;
  let inv = 1.0 /. p in
  (* Element growth is tracked on the values written here, so the
     conditioning signal costs no extra tableau pass. *)
  let max_entry = ref tb.max_entry in
  for j = 0 to n do
    Budget.tick ~what:"fsimplex: row normalization" ();
    let v = t.(row).(j) *. inv in
    t.(row).(j) <- v;
    let a = Float.abs v in
    if a > !max_entry then max_entry := a
  done;
  t.(row).(col) <- 1.0;
  for i = 0 to m do
    if i <> row && t.(i).(col) <> 0.0 then begin
      let f = t.(i).(col) in
      for j = 0 to n do
        Budget.tick ~what:"fsimplex: row elimination" ();
        let v = t.(i).(j) -. (f *. t.(row).(j)) in
        t.(i).(j) <- v;
        let a = Float.abs v in
        if a > !max_entry then max_entry := a
      done;
      t.(i).(col) <- 0.0
    end
  done;
  tb.max_entry <- !max_entry;
  tb.basis.(row) <- col;
  tb.pivot_count <- tb.pivot_count + 1

let entering_dantzig obj ~scale n =
  let best = ref (-1) in
  let best_cost = ref (-.eps *. scale) in
  for j = 0 to n - 1 do
    Budget.tick ~what:"fsimplex: pricing" ();
    if obj.(j) < !best_cost then begin
      best := j;
      best_cost := obj.(j)
    end
  done;
  !best

let entering_bland obj ~scale n =
  let entering = ref (-1) in
  (try
     for j = 0 to n - 1 do
       Budget.tick ~what:"fsimplex: pricing" ();
       if obj.(j) < -.eps *. scale then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  !entering

let rec iterate tb =
  let { t; m; n; basis; _ } = tb in
  (* Same termination scheme as the exact solver: Dantzig while it
     makes progress, Bland past a size-derived threshold, and a hard
     cap that turns any remaining pathology into a structured
     failure. *)
  let bland_after = 64 + (4 * (m + n)) in
  let max_pivots = 10_000 + (200 * (m + n)) in
  let scale = Float.max 1.0 tb.max_entry in
  let obj = t.(m) in
  let col =
    if tb.pivot_count < bland_after then entering_dantzig obj ~scale n
    else entering_bland obj ~scale n
  in
  if col < 0 then ()
  else begin
    let best = ref None in
    for i = 0 to m - 1 do
      Budget.tick ~what:"fsimplex: ratio test" ();
      let a = t.(i).(col) in
      if a > eps *. scale then begin
        let ratio = t.(i).(n) /. a in
        match !best with
        | None -> best := Some (ratio, i)
        | Some (r, i') ->
            if ratio < r || (ratio = r && basis.(i) < basis.(i')) then
              best := Some (ratio, i)
      end
    done;
    match !best with
    | None ->
        (* Phase-I objective is bounded below by 0: an "unbounded"
           column is pure round-off. Stop; the residual decides. *)
        ()
    | Some (_, row) ->
        Budget.tick ~what:"fsimplex pivot" ();
        if tb.pivot_count > max_pivots then
          raise
            (Budget.Exhausted
               (Budget.Solver_error
                  (Printf.sprintf "Fsimplex: pivot cap %d exceeded (cycling?)"
                     max_pivots)));
        pivot tb ~row ~col;
        iterate tb
  end

let feasible ~nvars ~rows () =
  List.iter
    (fun r ->
      if Array.length r.coeffs <> nvars then
        invalid_arg "Fsimplex.feasible: row length mismatch";
      Array.iter
        (fun c ->
          if not (Float.is_finite c) then
            invalid_arg "Fsimplex.feasible: non-finite coefficient")
        r.coeffs;
      if not (Float.is_finite r.rhs) then
        invalid_arg "Fsimplex.feasible: non-finite rhs")
    rows;
  let rows = Array.of_list rows in
  let m = Array.length rows in
  let n_split = 2 * nvars in
  let n_slack = m in
  let n = n_split + n_slack + m in
  let t = Array.init (m + 1) (fun _ -> Array.make (n + 1) 0.0) in
  let basis = Array.make m 0 in
  let flip = Array.make m false in
  for i = 0 to m - 1 do
    let { coeffs; op; rhs } = rows.(i) in
    let sign_flip = rhs < 0.0 in
    flip.(i) <- sign_flip;
    let put j v = t.(i).(j) <- (if sign_flip then -.v else v) in
    for v = 0 to nvars - 1 do
      Budget.tick ~what:"fsimplex: tableau setup" ();
      put (2 * v) coeffs.(v);
      put ((2 * v) + 1) (-.coeffs.(v))
    done;
    (match op with
    | Simplex.Le -> put (n_split + i) 1.0
    | Simplex.Ge -> put (n_split + i) (-1.0)
    | Simplex.Eq -> ());
    t.(i).(n) <- (if sign_flip then -.rhs else rhs);
    let art = n_split + n_slack + i in
    t.(i).(art) <- 1.0;
    basis.(i) <- art
  done;
  let tb =
    { t; basis; m; n; max_entry = 1.0; min_piv = infinity; pivot_count = 0 }
  in
  scan_growth tb;
  let initial_max = Float.max 1.0 tb.max_entry in
  (* Phase-I objective: minimize the artificial sum. Installing it
     into the last row subtracts each constraint row once (every
     artificial is basic with cost 1). *)
  for j = 0 to n do
    Budget.tick ~what:"fsimplex: objective install" ();
    let s = ref 0.0 in
    (* cqlint: allow R1 — column sum bounded by the row count; the
       enclosing loop ticks once per column *)
    for i = 0 to m - 1 do
      s := !s +. t.(i).(j)
    done;
    t.(m).(j) <- (if j >= n_split + n_slack && j < n then 1.0 -. !s else -. !s)
  done;
  iterate tb;
  let quality =
    {
      pivots = tb.pivot_count;
      min_pivot = (if tb.pivot_count = 0 then 1.0 else tb.min_piv);
      growth = tb.max_entry /. initial_max;
      residual = Float.abs t.(m).(n);
    }
  in
  let scale = Float.max 1.0 tb.max_entry in
  if quality.residual > 1e-7 *. scale then begin
    (* Infeasible: recover the dual prices from the reduced costs of
       the artificial columns (c_art = 1, so y_i = 1 - objrow[art_i]),
       then undo the rhs sign flips to express the certificate over
       the input rows. *)
    let mu =
      Array.init m (fun i ->
          Budget.tick ~what:"fsimplex: farkas extraction" ();
          let y = 1.0 -. t.(m).(n_split + n_slack + i) in
          if flip.(i) then -.y else y)
    in
    Infeasible (mu, quality)
  end
  else begin
    let x = Array.make nvars 0.0 in
    for i = 0 to m - 1 do
      Budget.tick ~what:"fsimplex: solution extraction" ();
      let b = basis.(i) in
      if b < n_split then begin
        let v = b / 2 in
        let contrib = if b land 1 = 0 then t.(i).(n) else -.t.(i).(n) in
        x.(v) <- x.(v) +. contrib
      end
    done;
    Feasible (x, quality)
  end
