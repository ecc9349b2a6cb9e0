(** Separability, classification and approximation with GHW(k)
    features (Section 5 and Section 7.2 of the paper).

    - {!separable} is the polynomial-time GHW(k)-separability test of
      Theorem 5.3 / Proposition 5.5, built on the cover-game preorder.
    - {!classify} is Algorithm 1 (Theorem 5.8): classification of an
      evaluation database consistent with a separating statistic that
      is {e never materialized}.
    - {!generate} materializes the statistic anyway via depth-bounded
      k-cover unravelings — exponential, as Proposition 5.6 permits and
      Theorem 5.7 forces.
    - {!apx_relabel} is Algorithm 2 (Theorem 7.4): the closest
      GHW(k)-separable relabeling; {!apx_separable} and {!apx_classify}
      are Corollary 7.5. *)

(** [chain ~k t] is the equivalence-class structure of the [→_k]
    preorder on [t]'s entities. *)
val chain : k:int -> Labeling.training -> Preorder_chain.t

(** [separable ~k t] decides GHW(k)-Sep in polynomial time. *)
val separable : k:int -> Labeling.training -> bool

(** [inseparable_witness ~k t] returns an oppositely-labeled
    [→_k]-equivalent pair when not separable. *)
val inseparable_witness : k:int -> Labeling.training -> (Elem.t * Elem.t) option

(** [classify ~k t eval_db] is Algorithm 1.
    @raise Invalid_argument if [t] is not GHW(k)-separable. *)
val classify : k:int -> Labeling.training -> Db.t -> Labeling.t

(** [generate ~k ~depth t] materializes
    [(q_{e_1}, ..., q_{e_m}, Λ)] using depth-[depth] unravelings. For
    [depth] large enough the statistic is exactly the canonical one;
    the size is exponential in [depth] (Theorem 5.7 — consult
    {!Unravel.node_count} first). *)
val generate :
  k:int -> depth:int -> Labeling.training -> (Statistic.t * Linsep.classifier) option

(** [apx_relabel ~k t] is Algorithm 2: the GHW(k)-separable labeling
    closest to [t]'s (majority label per [→_k]-class); returns it with
    its disagreement, minimal among all separable relabelings
    (Theorem 7.4). *)
val apx_relabel : k:int -> Labeling.training -> Labeling.t * int

(** [apx_separable ~k ~eps t] decides GHW(k)-ApxSep (Corollary 7.5):
    the minimal disagreement is at most [eps · |η(D)|]. *)
val apx_separable : k:int -> eps:Rat.t -> Labeling.training -> bool

(** [apx_classify ~k t eval_db] solves GHW(k)-ApxCls: Algorithm 1 run
    on the Algorithm-2 relabeling (Corollary 7.5). Returns the
    evaluation labeling and the training error incurred. *)
val apx_classify : k:int -> Labeling.training -> Db.t -> Labeling.t * int
