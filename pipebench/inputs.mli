(** Seeded inputs for the benchmark's workloads, rendered as textfmt.

    Every input is a deterministic function of the workload seed (and
    an instance index), built from {!Gen_db}, {!Planted} and
    {!Families}, then printed with {!Textfmt} so the pipeline starts
    from text. Training texts carry the training labels; held-out texts
    carry the planted query's labels, which the pipeline reads only to
    score accuracy. *)

type instance = {
  train_text : string;
  heldout_text : string;
  noisy : bool;  (** labels flipped after planting *)
}

(** The planted acyclic 3-atom query of [cqm_train] and [structural]. *)
val planted3 : Cq.t

(** The planted connected 2-atom query of [serve_mix]. *)
val planted2 : Cq.t

(** [cqm_instance ~seed i]: two disjoint copies of a random 20-node
    typed graph ([E/2], [R/1]) labeled by {!planted3}, so every entity
    has a twin with the same feature vector; every fifth instance
    ([i mod 5 = 4]) has three labels flipped, which leaves at least one
    twin pair oppositely labeled and so is never linearly separable.
    The held-out database is a fresh 20-node graph. *)
val cqm_instance : seed:int -> int -> instance

(** [structural_instance ~seed i]: a random 12-node typed graph with 24
    edges labeled by {!planted3} (GHW(1)-separable by construction),
    and a held-out graph of the same shape. In sparser graphs most
    held-out entities sit above no training class, so Algorithm 1's
    accuracy tracks each graph's share of positives and varies too
    much between seeds. *)
val structural_instance : seed:int -> int -> instance

(** [serving ~models ~seed] is the training texts of [models] serving
    models (each a 40-node typed graph labeled by {!planted2}) and
    their common held-out serving graph (400 nodes). In all of them,
    [R(v)] holds exactly when [E(v,v)] does, which makes every CQ[2]
    feature whose atoms are not all linked to the free variable
    duplicate an earlier connected feature, so the trained models'
    features are all connected. *)
val serving : models:int -> seed:int -> string array * string
