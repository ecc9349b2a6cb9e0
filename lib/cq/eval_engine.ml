type plan =
  | Acyclic of Join_tree.tree
  | Decomposed of Cq_decomp.decomp list
  | Hom_search

let plan ?(max_width = 2) q =
  Budget.tick ~what:"query planning" ();
  (* The structured engines pay a per-query planning cost that grows
     with the atom count (cubic ear search, exponential decomposition
     search); for very large queries — e.g. deep unravelings — the
     backtracking search's lazy pruning wins. *)
  if Cq.num_atoms q > 300 then Hom_search
  else
  match Join_tree.build q with
  | Some tree -> Acyclic tree
  | None ->
      let nvars = Elem.Set.cardinal (Cq.existential_vars q) in
      if nvars > 16 then Hom_search
      else begin
        let rec try_width k =
          Budget.tick ~what:"plan: decomposition width search" ();
          if k > max_width then Hom_search
          else begin
            match Cq_decomp.decomposition q ~k with
            | Some forest -> Decomposed forest
            | None -> try_width (k + 1)
          end
        in
        try_width 1
      end

let plan_kind_name = function
  | Acyclic _ -> "yannakakis"
  | Decomposed _ -> "ghw-decomposition"
  | Hom_search -> "hom-search"

let eval_with_plan q p db =
  match p with
  | Acyclic tree -> Join_tree.eval_tree tree db
  | Decomposed forest -> Ghw_eval.eval_with_decomp q db forest
  | Hom_search -> Cq.eval q db

let eval ?max_width q db = eval_with_plan q (plan ?max_width q) db

