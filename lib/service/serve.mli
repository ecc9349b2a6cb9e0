(** The serving tier: versioned models, cached verdicts, admission.

    A [Serve.t] pairs a {!Model_store} with an in-memory snapshot of
    the current model, an {!Eval_cache} of verdicts, and an
    admission/degradation ladder. Each batch is classified against
    exactly one snapshot (the snapshot swaps only after a publish has
    committed to disk — a batch racing a publish sees the previous
    version, never a mix). Under overload, cold evaluation sheds with
    structured {!Jobq.reject}s while cache-hit traffic keeps being
    served; repeated budget exhaustion opens a breaker that keeps
    failing cold evals off the pool. *)

type config = {
  cache_capacity : int;
  eval_rate : float;  (** cold-entity evaluations admitted per second *)
  eval_burst : float;  (** token-bucket depth, in cold evaluations *)
  eval_timeout : float option;  (** budget per classify batch *)
  eval_fuel : int option;
  key_fuel : int;  (** fuel for neighborhood-key construction *)
  breaker_threshold : int;
  breaker_cooldown : float;
  db_cache_slots : int;
}

val default_config : config

type t

(** [create ?config store] loads the store's current version (if any)
    as the serving snapshot. *)
val create : ?config:config -> Model_store.t -> t

val store : t -> Model_store.t
val current_version : t -> int option

(** [publish t m] writes a new version durably and swaps the serving
    snapshot to it (cache flips with the version).
    @raise Sys_error or [Unix.Unix_error] on I/O failure. *)
val publish : t -> Model_io.model -> int

val rollback : t -> (int, string) result

(** [models t] is [(current, all valid versions ascending)]. *)
val models : t -> int option * int list

type served = {
  sv_version : int;
  sv_results : (Elem.t * Labeling.label) list;  (** input order *)
  sv_hits : int;
  sv_cold : int;
}

type outcome =
  | Served of served
  | Shed of Jobq.reject  (** admission refused; nothing evaluated *)
  | Failed of Guard.failure  (** cold evaluation exceeded its budget *)

(** [classify t ~db_key ~db entities] — the ladder: no model →
    [Shed Invalid]; all hits → [Served] unconditionally; token bucket
    short → [Shed Overloaded]; breaker open → [Shed Breaker_open];
    else evaluate cold entities under the configured budget. [db_key]
    is an identity for [db] (e.g. a file fingerprint), used only in
    the fallback cache keys when neighborhood keys are unavailable.
    Neighborhood keys are memoized for the database served last,
    identified physically ([==]) since a [Db.t] is immutable: repeated
    batches on the same [db] value, across publishes, compute each
    entity's key once. *)
val classify :
  t -> db_key:string -> db:Db.t -> Elem.t list -> outcome

(** [load_db t path] parses a database file through the bounded
    per-instance cache (revalidated by stat identity). Returns the
    fingerprint (usable as [db_key]) and the database. *)
val load_db : t -> string -> (string * Db.t, string) result

type stats = {
  st_version : int option;
  st_served_batches : int;
  st_served_entities : int;
  st_cache : Eval_cache.stats;
  st_cold_evals : int;
  st_shed_overload : int;
  st_shed_breaker : int;
  st_eval_failures : int;
  st_publishes : int;
  st_rollbacks : int;
  st_tokens : float;
}

val stats : t -> stats
