(** Evaluation dispatcher: pick the cheapest sound engine per query.

    - α-acyclic queries (including the free variable) go to the
      Yannakakis engine ({!Join_tree}) — polynomial.
    - Otherwise, if a width-k decomposition with small k exists, the
      decomposition engine ({!Ghw_eval}) — polynomial for fixed k.
    - Otherwise per-entity backtracking homomorphism search ({!Cq}) —
      NP-hard combined complexity, matching the general case.

    Nothing is cached: a caller that evaluates one query over many
    databases plans once and passes the plan to {!eval_with_plan}. *)

type plan =
  | Acyclic of Join_tree.tree
  | Decomposed of Cq_decomp.decomp list
  | Hom_search

(** [plan ?max_width q] chooses an engine ([max_width] bounds the
    decomposition search; default 2). *)
val plan : ?max_width:int -> Cq.t -> plan

(** [plan_kind_name p] is a short label for reporting/benches. *)
val plan_kind_name : plan -> string

(** [eval ?max_width q db] is [q(db)] via the chosen engine. *)
val eval : ?max_width:int -> Cq.t -> Db.t -> Elem.t list

(** [eval_with_plan q plan db] reuses a previously computed plan. *)
val eval_with_plan : Cq.t -> plan -> Db.t -> Elem.t list
