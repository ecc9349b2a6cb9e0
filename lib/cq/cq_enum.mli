(** Enumeration of the regularized feature classes CQ[m] and CQ[m,p].

    The key observation behind Proposition 4.1 of the paper: for fixed
    [m] the statistic containing {e all} feature queries with at most
    [m] atoms (over the relation symbols of the data) is separating iff
    any statistic is, and its size is bounded by [r^m · 2^{p(k)}] for
    [r] relation symbols of maximal arity [k]. This module materializes
    that statistic.

    Queries are generated with a canonical variable-introduction
    discipline and deduplicated up to isomorphism (variable renaming),
    which preserves indicator functions. Counts are exponential in
    [m · k] — exactly the [2^{q(k)}] factor in the paper's FPT bound,
    which the `prop41` benches sweep. *)

(** [feature_queries ?max_var_occ ~schema ~max_atoms ()] is all feature
    queries [q(x)] with at most [max_atoms] atoms over the relation
    symbols of [schema] (pairs of name and arity, [eta] excluded —
    the mandatory [eta(x)] atom is implicit and not counted), up to
    isomorphism. With [max_var_occ = p] only queries in CQ[m,p] (each
    variable occurring at most [p] times) are produced. Includes the
    trivial query [eta(x)] (zero atoms).

    Results are shared: the list is memoized per (schema,
    [max_atoms], [max_var_occ]) — the schema taken without [eta] and
    sorted by relation name, so a reordered schema hits the same
    entry — and later calls return the same physical list. The memo
    is registered as the [`Cache] entry ["cq_enum.memo"], so
    {!Runtime_state.reset_caches} (and every forked worker) drops it;
    an enumeration aborted by its budget leaves no entry behind. *)
val feature_queries :
  ?max_var_occ:int -> schema:(string * int) list -> max_atoms:int -> unit -> Cq.t list

(** [feature_batch ?max_var_occ ~schema ~max_atoms ()] is
    [feature_queries ...] with its compiled batch, linked along the
    atom-extension lattice ({!Eval_engine.linked_batch}): the list is
    closed under dropping an atom, so nearly every distinct component
    has a parent in it, a component with exactly its atoms minus one,
    and is evaluated from that parent's bindings by one join or
    semijoin with the extra atom (at seed state, 112 of 112
    x-components and 65 of 65 Boolean components of CQ[3] over
    [{E/2, R/1}], roots included). The lattice is confined to this
    batch: no option selects it elsewhere. The batch is memoized in the same ["cq_enum.memo"] entry as the list,
    so it is compiled once per schema and bounds; it is stored only
    once its compile completes, so a compile aborted by its budget
    leaves the entry holding the list alone and the next call compiles
    again. *)
val feature_batch :
  ?max_var_occ:int -> schema:(string * int) list -> max_atoms:int -> unit ->
  Cq.t list * Eval_engine.batch

(** [count ?max_var_occ ~schema ~max_atoms ()] is
    [List.length (feature_queries ...)] (and so memoizes the list). *)
val count :
  ?max_var_occ:int -> schema:(string * int) list -> max_atoms:int -> unit -> int

(** [dedupe_equivalent qs] removes semantic duplicates (pairwise
    {!Cq.equivalent}); quadratic with NP-hard tests — only for small
    lists. *)
val dedupe_equivalent : Cq.t list -> Cq.t list

(** [schema_of_db db] is the relation list of a database without the
    entity relation, suitable for [~schema]. *)
val schema_of_db : Db.t -> (string * int) list
