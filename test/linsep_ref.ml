(* Reference ApxSep search for the differential tests: the minimum-error
   DFS of [Linsep.min_errors_exact] with every leaf decided by the exact
   rational simplex ([Linsep.separable]) instead of the certified tier.
   Same iterative deepening from the consistency lower bound, same group
   order, cheaper side first and the same [cap], so the optimum and the
   [None] cases must agree with the library's on every input, and under
   [Nsep.Exact_only] the witnessing classifier must too. *)

let min_errors_exact ?cap examples =
  let cap = match cap with Some c -> c | None -> List.length examples in
  let groups = Array.of_list (Linsep.group_by_vector examples) in
  let ngroups = Array.length groups in
  let rec try_budget budget =
    if budget > cap then None
    else
      let rec assign i err chosen =
        if err > budget then None
        else if i >= ngroups then
          Option.map (fun c -> (err, c)) (Linsep.separable chosen)
        else
          let pos, neg, vec = groups.(i) in
          let keep label err' () =
            assign (i + 1) err' ({ Linsep.vec; label } :: chosen)
          in
          let keep_pos = keep Labeling.Pos (err + neg)
          and keep_neg = keep Labeling.Neg (err + pos) in
          let first, second =
            if neg <= pos then (keep_pos, keep_neg) else (keep_neg, keep_pos)
          in
          match first () with Some r -> Some r | None -> second ()
      in
      match assign 0 0 [] with
      | Some r -> Some r
      | None -> try_budget (budget + 1)
  in
  try_budget (Linsep.consistency_lower_bound examples)
