(** Linear separability of ±1 training collections (Section 2).

    A training collection is a list of examples [(b̄, y)] with
    [b̄ ∈ {1,-1}^n] and [y ∈ {1,-1}]. It is linearly separable when some
    weights [w̄ = (w_0, w_1, ..., w_n)] satisfy
    [Λ_w̄(b̄) = (if Σ w_i·b_i ≥ w_0 then 1 else -1) = y] for every
    example. Deciding this is in PTIME via linear programming (the
    paper cites Khachiyan/Karmarkar); here an exact simplex plays that
    role.

    This is the core below the certified tier: {!Certify} and {!Nsep}
    build on it, and {!Linsep} re-exports it together with the ApxSep
    search, whose leaves {!Nsep} decides. Callers outside
    [lib/linsep] name it as [Linsep]. *)

type example = { vec : int array;  (** entries in {1, -1} *) label : Labeling.label }

type classifier = { weights : Rat.t array; threshold : Rat.t }
(** [Λ(b̄) = 1 iff Σ weights.(i)·b̄.(i) ≥ threshold]. *)

(** [classify c vec] applies the linear classifier. It is staged:
    [classify c] puts the weights and threshold over one common
    denominator ({!Rat.common_denominator}), after which each vector
    costs only integer adds and one compare. Apply [classify c] once
    and reuse the closure for every vector of a batch.
    @raise Invalid_argument ["Linsep.classify: dimension mismatch"]
    when [vec] and the weights differ in length. *)
val classify : classifier -> int array -> Labeling.label

(** [errors c examples] counts misclassified examples. *)
val errors : classifier -> example list -> int

(** [separable examples] returns a separating classifier if one exists.
    Strict separation of the negatives is encoded with a unit margin
    (scale-invariant, hence without loss of generality). The empty
    collection is separable. *)
val separable : example list -> classifier option

(** [is_separable examples] is [separable examples <> None]. *)
val is_separable : example list -> bool

(** [group_by_vector examples] groups the collection by identical
    vectors, in first-seen order: one [(pos, neg, vec)] triple per
    distinct vector with its positive and negative multiplicities.
    Deterministic in the input order alone (no Hashtbl iteration
    order leaks). This is the reduction step shared by the
    consistency precheck and the numeric tier ({!Nsep}). *)
val group_by_vector : example list -> (int * int * int array) list

(** [separable_iff_consistent examples] is the cheap necessary
    condition: no two examples with identical vectors and different
    labels. (Not sufficient in general — see Example 6.2-style gaps —
    but it is the first thing every decision procedure checks.) *)
val separable_iff_consistent : example list -> bool

(** [chain_classifier ~labels ~below] builds the explicit classifier of
    the Kimelfeld–Ré construction used by Lemma 5.4 / Theorem 5.8:
    given equivalence classes [E_1 ≼ ... ≼ E_m] in topological order
    (so [below j i] — meaning [E_j ≼ E_i] — implies [j ≤ i]) and the
    class labels, the weights [w_j = label(E_j)·3^{j+1}] with threshold
    [-Σ w_j] classify the vector of any entity of class [E_i]
    (which has [+1] exactly at [{j | below j i}]) as [labels.(i)].
    Exact bignum arithmetic, no LP call. *)
val chain_classifier : labels:Labeling.label array -> below:(int -> int -> bool) -> classifier

(** [chain_vector ~below ~m i] is the ±1 vector of class [E_i] under
    the statistic [(q_{e_1}, ..., q_{e_m})]: [+1] at [j] iff
    [below j i]. *)
val chain_vector : below:(int -> int -> bool) -> m:int -> int -> int array

(** [consistency_lower_bound examples] is [Σ_g min(pos_g, neg_g)] over
    groups of identical vectors — a lower bound on the minimum error of
    {e any} classifier. *)
val consistency_lower_bound : example list -> int
