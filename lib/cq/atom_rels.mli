(** The relation of each query atom over one database, built once per
    atom shape.

    An atom's relation is the list of rows of the database facts it
    matches, one value per distinct variable of the atom, in order of
    first occurrence: [E(y,y)] matches the facts [E(a,a)] and gives the
    rows [[|a|]]. The rows depend only on the atom's relation name and
    on which of its positions repeat a variable (its shape), not on the
    variable names, so one table answers every atom of every query that
    one evaluation pass asks about. The table belongs to that pass: the
    caller creates it, hands it to the evaluators ({!Join_tree},
    {!Ghw_eval}) and drops it; nothing outlives the pass.

    The pass also offers an id view of the same relations, built only
    on request (the decomposition engine asks for it; the Yannakakis
    engine never does): each atom shape asked for gets its rows as
    [int array]s, and each element met in those rows is numbered once
    per pass, in the order first met. Elements of the database that no
    requested row holds get no id, so the view costs what the rows it
    holds cost, whatever the size of the domain. *)

type t

(** [create db] is an empty table over [db]; rows are built on first
    request. *)
val create : Db.t -> t

(** [db t] is the database [t] reads. *)
val db : t -> Db.t

(** [distinct_vars atom] is the variables of [atom] in order of first
    occurrence — the columns of its rows. *)
val distinct_vars : Fact.t -> Elem.t list

(** [rows t atom] is the relation of [atom]: for each fact of its
    relation with its arity that repeats a value wherever [atom]
    repeats a variable, the values at the variables' first positions.
    Atoms of one shape get the same physical list. *)
val rows : t -> Fact.t -> Elem.t array list

(** [id_count t] is the number of elements numbered so far on [t]:
    the ids handed out are [0 .. id_count t - 1]. It grows as
    {!id_rows} meets new elements. *)
val id_count : t -> int

(** [elem_of_id t i] is the element numbered [i]. Ids follow the order
    elements were first met, not [Elem.compare].
    @raise Invalid_argument if no element has id [i]. *)
val elem_of_id : t -> int -> Elem.t

(** [id_rows t atom] is [rows t atom] with each element replaced by
    its id, built once per shape; it numbers the elements it meets
    first. *)
val id_rows : t -> Fact.t -> int array list
