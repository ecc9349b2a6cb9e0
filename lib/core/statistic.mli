(** Statistics: sequences of feature queries (Section 3).

    A statistic [Π = (q_1, ..., q_n)] maps every entity [e] of a
    database to the ±1 vector [Π^D(e)] of feature-query indicators.
    Together with a linear classifier it induces a labeling; [(Π, Λ)]
    separates a training database when that labeling is exactly the
    training labeling. *)

type t = Cq.t list

val dimension : t -> int

(** [vectors_for batch db es] is [(e, Π^D(e))] for each [e] of [es],
    where [batch] is [Eval_engine.batch stat], compiled once by the
    caller: in order and with repeats kept (entries [+1]/[-1]; an [e]
    outside [η(D)] gets all [-1]), in one {!Eval_engine.columns} pass,
    where hom-search x-components run a pointed search per distinct
    element of [es]. A serving snapshot compiles its model's batch
    once, at install, and evaluates every cold batch through it. *)
val vectors_for :
  Eval_engine.batch -> Db.t -> Elem.t list -> (Elem.t * int array) list

(** [vector stat db e] is [Π^D(e)]: [vectors_for] on [[e]], with the
    batch of [stat] compiled for this call. *)
val vector : t -> Db.t -> Elem.t -> int array

(** [vectors stat db] is [Π^D] over all entities of [db]: [vectors_for]
    on [Db.entities db], with the batch of [stat] compiled for this
    call. *)
val vectors : t -> Db.t -> (Elem.t * int array) list

(** [examples stat t] is the training collection
    [(Π^D(e), λ(e))_{e ∈ η(D)}], in one pass as {!vectors_for}. *)
val examples : t -> Labeling.training -> Linsep.example list

(** [examples_of_columns cols t] is {!examples} read off the columns
    [cols] of a statistic over [Db.entities t.db], with no evaluation. *)
val examples_of_columns :
  Eval_engine.column array -> Labeling.training -> Linsep.example list

(** [separating_classifier stat t] finds a linear classifier [Λ] such
    that [(stat, Λ)] separates [t], if any (LP-based). *)
val separating_classifier : t -> Labeling.training -> Linsep.classifier option

(** [separates stat t] is [separating_classifier stat t <> None]. *)
val separates : t -> Labeling.training -> bool

(** [induced_labeling stat classifier db] is the labeling
    [e ↦ Λ(Π^D(e))] of the entities of [db]. *)
val induced_labeling : t -> Linsep.classifier -> Db.t -> Labeling.t

(** [errors stat classifier t] counts training entities on which the
    induced labeling disagrees with [t]'s labeling. *)
val errors : t -> Linsep.classifier -> Labeling.training -> int

(** [max_atoms stat] is the largest atom count among the features. *)
val max_atoms : t -> int

(** [pp] prints the feature queries, one per line. *)
val pp : Format.formatter -> t -> unit
