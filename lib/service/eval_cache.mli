(** Bounded verdict cache for the serving tier, version-tagged.

    Keys are canonical entity-neighborhood strings ({!Neighborhood})
    or database-identity fallbacks; values are classification labels.
    Entries belong to one model version: {!set_version} (called on
    every publish/rollback) clears the table, so a verdict can never
    be served under a model it was not computed with. FIFO eviction
    bounds memory. All live caches hang off one registered
    {!Runtime_state} entry, so [reset_caches] in forked workers
    empties them (correctness is unaffected — entries recompute). The
    entry holds them weakly: a cache nobody references is collected. *)

type t

(** @raise Invalid_argument when [capacity < 1]. *)
val create : capacity:int -> t

(** [set_version t v] flips the cache to model version [v], clearing
    it if [v] differs from the current version. *)
val set_version : t -> int -> unit

(** [find t ~version key] — a hit only if the cache holds [key] {e at
    that version}. Counts hit/miss. *)
val find : t -> version:int -> string -> Labeling.label option

(** [add t ~version key label] records a verdict (flipping the cache
    to [version] first if needed), evicting FIFO at capacity. *)
val add : t -> version:int -> string -> Labeling.label -> unit

type stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  flips : int;
}

val stats : t -> stats
