(* Exact certification of numeric separation answers.

   The float tier (Cg, Fsimplex) only ever produces *candidates*:
   a separating hyperplane, or a Farkas row combination claiming none
   exists. This module re-derives each claim in exact rational
   arithmetic, so that a verdict leaves the pipeline only with a proof
   attached:

   - [hyperplane] lifts the float weights through {!Rat.of_float}
     (exact on every finite double), replays every example's margin
     as an integer over the weights' common denominator, and
     re-derives the threshold exactly. A [Certified] classifier is
     a real separator — not "probably separates", but checked on each
     example with bignum arithmetic.

   - [farkas] does not even trust the float multipliers' values, only
     their *support*: it reconstructs the certificate from scratch as
     the exact nullspace of the supported constraint columns, then
     checks the Farkas sign conditions. Round-off in the multipliers
     therefore cannot smuggle in a wrong UNSAT — at worst the
     reconstruction fails and the caller escalates to the exact
     solver. *)

type 'a verdict =
  | Certified of 'a
  | Refuted of string  (* the claim is exactly false as stated *)
  | Inconclusive of string  (* could not decide either way; escalate *)

let verdict_label = function
  | Certified _ -> "certified"
  | Refuted _ -> "refuted"
  | Inconclusive _ -> "inconclusive"

(* --- separating-hyperplane certificates ----------------------------- *)

(* The float solvers hand over a weight direction whose threshold is
   polluted by the same round-off as everything else. But the
   threshold is a free normalization: the direction separates iff the
   largest exact negative margin lies strictly below the smallest
   exact positive margin, and then ANY value in between is a valid
   threshold. So certification recomputes the optimal threshold
   exactly instead of trusting (or even taking) the solver's — a
   candidate within round-off of a true separator still certifies. *)
let hyperplane ~weights examples =
  match
    try Ok (Array.map Rat.of_float weights)
    with Invalid_argument msg -> Error msg
  with
  | Error msg -> Inconclusive ("non-finite candidate: " ^ msg)
  | Ok w -> (
      (* Margins are integers over the weights' common denominator
         [d] (a power of two, since every weight is dyadic): the exact
         margin of [vec] is [margin vec / d], and [d > 0] keeps every
         comparison as it is over the rationals. *)
      let n = Array.length w in
      let nums, d = Rat.common_denominator w in
      let margin vec =
        let acc = ref Bigint.zero in
        for i = 0 to n - 1 do
          Budget.tick ~what:"certify: margin term" ();
          acc :=
            match vec.(i) with
            | 1 -> Bigint.add !acc nums.(i)
            | -1 -> Bigint.sub !acc nums.(i)
            | b -> Bigint.add !acc (Bigint.mul nums.(i) (Bigint.of_int b))
        done;
        !acc
      in
      let min_pos = ref None in
      let max_neg = ref None in
      List.iter
        (fun ex ->
          Budget.tick ~what:"certify: example margin" ();
          if Array.length ex.Halfspace.vec <> n then
            invalid_arg "Certify.hyperplane: dimension mismatch";
          let m = margin ex.Halfspace.vec in
          match ex.Halfspace.label with
          | Labeling.Pos ->
              min_pos :=
                Some
                  (match !min_pos with None -> m | Some p -> Bigint.min p m)
          | Labeling.Neg ->
              max_neg :=
                Some
                  (match !max_neg with None -> m | Some q -> Bigint.max q m))
        examples;
      let certified threshold =
        Certified { Halfspace.weights = w; threshold }
      in
      match (!min_pos, !max_neg) with
      | None, None -> certified Rat.zero
      | Some p, None -> certified (Rat.make p d) (* p >= p: all positives pass *)
      | None, Some q ->
          certified (Rat.make (Bigint.add q d) d) (* q < q + 1 *)
      | Some p, Some q ->
          if Bigint.compare q p < 0 then
            (* Midpoint: q < (q+p)/2 < p, so positives clear it
               non-strictly and negatives strictly. *)
            certified (Rat.make (Bigint.add p q) (Bigint.mul Bigint.two d))
          else
            Refuted
              "no threshold separates: a negative margin reaches the \
               smallest positive margin")

(* --- Farkas (infeasibility) certificates ----------------------------- *)

(* Reduced row echelon form in place; returns the pivot (row, col)
   list in column order. *)
let rref m nrows ncols =
  let pivots = ref [] in
  let r = ref 0 in
  for c = 0 to ncols - 1 do
    Budget.tick ~what:"certify: rref column" ();
    if !r < nrows then begin
      (* Find a row at or below !r with a nonzero entry in column c. *)
      let piv = ref (-1) in
      (try
         for i = !r to nrows - 1 do
           Budget.tick ~what:"certify: pivot search" ();
           if not (Rat.is_zero m.(i).(c)) then begin
             piv := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !piv >= 0 then begin
        let tmp = m.(!r) in
        m.(!r) <- m.(!piv);
        m.(!piv) <- tmp;
        let inv = Rat.inv m.(!r).(c) in
        for j = c to ncols - 1 do
          Budget.tick ~what:"certify: row normalization" ();
          m.(!r).(j) <- Rat.mul inv m.(!r).(j)
        done;
        for i = 0 to nrows - 1 do
          Budget.tick ~what:"certify: row elimination" ();
          if i <> !r && not (Rat.is_zero m.(i).(c)) then begin
            let f = m.(i).(c) in
            for j = c to ncols - 1 do
              Budget.tick ~what:"certify: entry elimination" ();
              m.(i).(j) <- Rat.sub m.(i).(j) (Rat.mul f m.(!r).(j))
            done
          end
        done;
        pivots := (!r, c) :: !pivots;
        incr r
      end
    end
  done;
  List.rev !pivots

(* Exact feasibility of the subsystem picked out by [support]:
   infeasibility of any subsystem is inherited by the whole system, so
   an exact-infeasible support is a full certificate. The subsystem is
   typically near the Helly bound (nvars + 1 rows), orders of
   magnitude smaller than the full collection. *)
let subsystem_infeasible ~n support examples =
  let nvars = n + 1 in
  let rows =
    Array.to_list
      (Array.map
         (fun i ->
           Budget.tick ~what:"certify: subsystem row" ();
           let ex = examples.(i) in
           let coeffs =
             Array.init nvars (fun d ->
                 if d < n then Rat.of_int ex.Halfspace.vec.(d)
                 else Rat.minus_one)
           in
           match ex.Halfspace.label with
           | Labeling.Pos -> { Simplex.coeffs; op = Simplex.Ge; rhs = Rat.zero }
           | Labeling.Neg ->
               { Simplex.coeffs; op = Simplex.Le; rhs = Rat.minus_one })
         support)
  in
  match Simplex.feasible ~nvars ~rows () with
  | None -> Certified ()
  | Some _ -> Inconclusive "support subsystem is exactly feasible"

let farkas ~mu examples =
  let examples = Array.of_list examples in
  let m = Array.length examples in
  if Array.length mu <> m then
    invalid_arg "Certify.farkas: one multiplier per example required";
  if m = 0 then Inconclusive "empty system cannot be infeasible"
  else begin
    let n = Array.length examples.(0).Halfspace.vec in
    Array.iter
      (fun ex ->
        if Array.length ex.Halfspace.vec <> n then
          invalid_arg "Certify.farkas: dimension mismatch")
      examples;
    let nvars = n + 1 in
    (* Support of the float candidate, relative to its largest entry.
       Only the support is trusted; the multiplier values are
       recomputed exactly below. *)
    let max_mu = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 mu in
    if max_mu = 0.0 || not (Float.is_finite max_mu) then
      Inconclusive "degenerate multiplier candidate"
    else begin
      let support = ref [] in
      for i = m - 1 downto 0 do
        Budget.tick ~what:"certify: support scan" ();
        if Float.abs mu.(i) > 1e-8 *. max_mu then support := i :: !support
      done;
      let support = Array.of_list !support in
      let k = Array.length support in
      (* Constraint row i has coefficients a_i = (vec_i, -1) over
         (w_1..w_n, w0). A certificate needs λ with Σ λ_i·a_i = 0:
         λ lives in the nullspace of the nvars×k matrix whose columns
         are the supported a_i. *)
      let mat =
        Array.init nvars (fun d ->
            Array.init k (fun j ->
                Budget.tick ~what:"certify: matrix build" ();
                let ex = examples.(support.(j)) in
                if d < n then Rat.of_int ex.Halfspace.vec.(d)
                else Rat.minus_one))
      in
      let pivots = rref mat nvars k in
      let rank = List.length pivots in
      let reconstructed =
        if k - rank <> 1 then
          Inconclusive
            (Printf.sprintf "support nullity %d (need exactly 1)" (k - rank))
        else begin
        let pivot_cols = List.map snd pivots in
        let free =
          let f = ref (-1) in
          for j = k - 1 downto 0 do
            Budget.tick ~what:"certify: free column scan" ();
            if not (List.mem j pivot_cols) then f := j
          done;
          !f
        in
        let lambda = Array.make k Rat.zero in
        lambda.(free) <- Rat.one;
        List.iter
          (fun (r, c) ->
            Budget.tick ~what:"certify: back substitution" ();
            lambda.(c) <- Rat.neg mat.(r).(free))
          pivots;
        (* Orient by Σ λ_i·b_i > 0 (rhs: 0 for Ge/positive rows, -1
           for Le/negative rows). *)
        let lam_b = ref Rat.zero in
        for j = 0 to k - 1 do
          Budget.tick ~what:"certify: rhs combination" ();
          match examples.(support.(j)).Halfspace.label with
          | Labeling.Pos -> ()
          | Labeling.Neg ->
              lam_b := Rat.add !lam_b (Rat.neg lambda.(j))
        done;
        if Rat.is_zero !lam_b then
          Inconclusive "certificate combination has zero right-hand side"
        else begin
          let lambda =
            if Rat.sign !lam_b > 0 then lambda else Array.map Rat.neg lambda
          in
          (* Sign conditions: λ ≥ 0 on Ge rows (positive examples),
             λ ≤ 0 on Le rows (negative examples). *)
          let ok = ref true in
          for j = 0 to k - 1 do
            Budget.tick ~what:"certify: sign check" ();
            let s = Rat.sign lambda.(j) in
            match examples.(support.(j)).Halfspace.label with
            | Labeling.Pos -> if s < 0 then ok := false
            | Labeling.Neg -> if s > 0 then ok := false
          done;
          if !ok then Certified ()
          else Refuted "reconstructed combination violates Farkas signs"
        end
      end
      in
      match reconstructed with
      | Certified () -> Certified ()
      | Refuted _ | Inconclusive _ ->
          (* Slow path: the cheap reconstruction failed (support too
             degenerate for a one-dimensional nullspace, usually).
             By Helly, an infeasible system over nvars variables has an
             infeasible subsystem of at most nvars + 1 rows, and the
             rows with the largest multipliers are the likeliest
             members. Exact-solve growing prefixes of the support in
             magnitude order: any exactly-infeasible prefix is a full
             proof at a fraction of a whole-system escalation. *)
          let by_magnitude = Array.copy support in
          Array.sort
            (fun i j ->
              match Float.compare (Float.abs mu.(j)) (Float.abs mu.(i)) with
              | 0 -> Int.compare i j
              | c -> c)
            by_magnitude;
          let cap = Stdlib.min (m - 1) k in
          let rec prefixes size last =
            Budget.tick ~what:"certify: subsystem prefix" ();
            if size > cap then last
            else begin
              let sub = Array.sub by_magnitude 0 size in
              match subsystem_infeasible ~n sub examples with
              | Certified () -> Certified ()
              | (Refuted _ | Inconclusive _) as v ->
                  if size = cap then v else prefixes (Stdlib.min cap (2 * size)) v
            end
          in
          prefixes (Stdlib.min cap (nvars + 1))
            (Inconclusive "empty support prefix")
    end
  end
