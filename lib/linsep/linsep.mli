(** Linear separability of ±1 training collections (Section 2) and the
    approximate-separability objective of Section 7.

    Everything of {!Halfspace} — examples, classifiers, the exact
    [separable] test, the consistency helpers and the chain classifier
    — under its usual name, plus the ApxSep search, which sits above
    the certified tier ({!Nsep}). *)

include module type of struct
  include Halfspace
end

(** [min_errors_exact ?cap examples] computes the minimum number of
    misclassified examples over all linear classifiers — the
    approximate-separability objective of Section 7. NP-hard
    (Höffgen–Simon–Van Horn), solved by iterative-deepening search over
    discarded examples with a consistency lower bound; [cap] (default
    [List.length examples]) aborts the search above that many errors
    and returns [None]. Returns the optimum and a witnessing
    classifier.

    Each leaf of the search (one side chosen for every group of
    identical vectors) is decided by {!Nsep.separable}: the ambient
    tier with escalation on, so every leaf verdict carries an exact
    proof (a {!Certify} hyperplane, Farkas multipliers or the exact
    simplex) and counts in ["nsep.stats"]. The optimum and the [cap]
    semantics do not depend on the tier; the witnessing classifier
    does. Under [Exact_only] it is the exact simplex's vertex, under
    [Numeric] usually the certified CG fit. *)
val min_errors_exact : ?cap:int -> example list -> (int * classifier) option
