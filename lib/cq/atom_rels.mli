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
    {!Ghw_eval}) and drops it; nothing outlives the pass. *)

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
