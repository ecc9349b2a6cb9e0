include Halfspace

(* --- approximate separation ----------------------------------------- *)

(* Iterative deepening on the number of discarded examples, searching
   over vector groups. Discarding from a group means accepting that
   many errors there; within a group only the counts matter, so the
   branching is per group: keep it positive (err += neg), keep it
   negative (err += pos). A kept group contributes one representative
   example with the chosen label. A complete assignment is decided by
   the certified tier, which proves each verdict exactly. *)
let min_errors_exact ?cap examples =
  let cap = match cap with Some c -> c | None -> List.length examples in
  let groups = Array.of_list (group_by_vector examples) in
  let ngroups = Array.length groups in
  let lower = consistency_lower_bound examples in
  let rec try_budget budget =
    Budget.tick ~what:"linsep: error budget search" ();
    if budget > cap then None
    else begin
      (* DFS assigning each group a forced side; prune on budget. *)
      let rec assign i err chosen =
        Budget.tick ~what:"linsep: group assignment search" ();
        if err > budget then None
        else if i >= ngroups then
          Option.map (fun c -> (err, c)) (Nsep.separable chosen)
        else begin
          let pos, neg, vec = groups.(i) in
          let keep label err' () = assign (i + 1) err' ({ vec; label } :: chosen) in
          let keep_pos = keep Labeling.Pos (err + neg)
          and keep_neg = keep Labeling.Neg (err + pos) in
          (* Try the cheaper side first. *)
          let first, second =
            if neg <= pos then (keep_pos, keep_neg) else (keep_neg, keep_pos)
          in
          match first () with Some r -> Some r | None -> second ()
        end
      in
      match assign 0 0 [] with
      | Some r -> Some r
      | None -> try_budget (budget + 1)
    end
  in
  try_budget lower
