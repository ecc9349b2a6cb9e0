(** The preorder-based separability machinery shared by CQ-Sep and
    GHW(k)-Sep (Lemma 5.4, Theorem 5.8, Theorem 7.4).

    Both classes admit canonical "most specific" feature queries [q_e]
    whose selection relation is a preorder [≼] on entities
    ([e ≼ e'] iff [e' ∈ q_e(D)]): the homomorphism preorder
    [(D,e) → (D,e')] for CQ, the cover-game preorder
    [(D,e) →_k (D,e')] for GHW(k). Everything downstream — the
    separability test, the explicit classifier, Algorithm 1's
    materialization-free classification, and Algorithm 2's optimal
    relabeling — depends only on that preorder, so it is factored out
    here. *)

type t = {
  reps : Elem.t array;  (** class representatives, topologically sorted *)
  members : Elem.t list array;  (** class members, same indexing *)
  class_below : bool array array;
      (** [class_below.(j).(i)] iff [E_j ≼ E_i]; topological order
          guarantees it implies [j ≤ i] *)
}

(** [build ~entities ~matrix] groups entities into equivalence classes
    of the preorder [matrix] ([matrix.(i).(j)] = [e_i ≼ e_j]) and
    topologically sorts the classes. *)
val build : entities:Elem.t array -> matrix:bool array array -> t

(** [class_of t e] is the index of [e]'s class.
    @raise Not_found if [e] belongs to no class. *)
val class_of : t -> Elem.t -> int

(** [consistent_labels t labeling] returns the per-class labels when
    every class is label-homogeneous — the separability criterion of
    Lemma 5.4(2) — and otherwise an oppositely-labeled
    equivalent pair, which witnesses inseparability. *)
val consistent_labels :
  t -> Labeling.t -> (Labeling.label array, Elem.t * Elem.t) result

(** [majority_labels t labeling] is Algorithm 2's relabeling: each
    class takes the majority label of its members (ties go positive,
    matching the [≥ 0] convention of Theorem 7.4). Returns the class
    labels and the total disagreement with [labeling] — the minimum
    over all separable relabelings. *)
val majority_labels : t -> Labeling.t -> Labeling.label array * int

(** [classifier t labels] is the explicit exact classifier of the
    Kimelfeld–Ré construction for the statistic [(q_{rep_1}, ...,
    q_{rep_m})] (no LP). *)
val classifier : t -> Labeling.label array -> Linsep.classifier

(** [vector_of ~arrow t x] is the ±1 vector of an item [x] under the
    canonical statistic, where [arrow rep x] decides
    [x ∈ q_rep(·)] — e.g. [(D, rep) →_k (D', x)] in Algorithm 1.

    Precondition: [arrow] composes with the class order, i.e. whenever
    [class_below.(i).(j)] and [arrow reps.(j) x] hold, so does
    [arrow reps.(i) x]. The transitive relations [→_k] and [→] of both
    callers satisfy it. [vector_of] uses it to skip arrows: a false
    answer for class [j] fixes every class above [j] to [-1] without
    asking. *)
val vector_of : arrow:(Elem.t -> 'a -> bool) -> t -> 'a -> int array

(** [classify ~arrow t labels xs] labels each item by applying
    {!classifier} to its {!vector_of} — Algorithm 1 generically. [arrow]
    must meet the precondition of {!vector_of}. *)
val classify :
  arrow:(Elem.t -> 'a -> bool) ->
  t ->
  Labeling.label array ->
  'a list ->
  ('a * Labeling.label) list

(** [to_dot ?labels t] renders the class DAG (covering relation of the
    preorder) in Graphviz format; with [labels], classes are annotated
    with their label. The ≼-structure is the object Lemma 5.4 and
    Algorithm 1 are really about, so the CLI exposes this for
    inspection. *)
val to_dot : ?labels:Labeling.label array -> t -> string
