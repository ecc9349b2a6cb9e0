(** Registry of top-level mutable solver state, for the abort-safety
    audit.

    Budgeted computations abort at arbitrary tick sites (deadline,
    fuel, chaos injection), so any cache or memo table that outlives a
    single call must be registered here with a [reset] action and,
    ideally, an internal-consistency [validate]. The chaos test suite
    uses the registry as its single choke point: reset everything
    before a seeded run, validate everything after an abort. cqlint
    rule R9 enforces registration for top-level mutable bindings that
    an exported solver entry point writes.

    Registration happens at module initialization
    ([let () = Runtime_state.register ...]) and is not thread-safe —
    like the ambient budget, the registry assumes single-domain use. *)

type kind = [ `Cache | `Config ]
(** [`Cache] state is semantically transparent: resetting it costs
    recomputation, never correctness (memo tables, interning maps,
    counters). [`Config] state carries meaning — the selected numeric
    tier, registered hook lists — and is only cleared by the full
    {!reset_all}. *)

val register :
  name:string -> ?kind:kind -> ?validate:(unit -> bool) ->
  (unit -> unit) -> unit
(** [register ~name ?kind ?validate reset] adds an entry. [name] should
    be ["module.binding"] (e.g. ["cq_sep.chain_cache"]). [kind]
    defaults to [`Cache]. [reset] must restore the state to its
    pristine, just-loaded value; [validate] (default: always true)
    checks internal invariants without mutating anything.
    @raise Invalid_argument on a duplicate [name]. *)

val names : unit -> string list
(** All registered names, sorted. *)

val registered : string -> bool

val reset_all : unit -> unit
(** Reset every registered piece of state — caches and configuration —
    to pristine. Answers computed afterwards must not depend on
    anything computed before. *)

val reset_caches : unit -> unit
(** Reset only the [`Cache]-kind entries. This is the fork-child
    hygiene hook: a freshly forked Isolate worker drops every inherited
    memo table (chaos-poisoned or stale parent state can never leak
    into its result) while ambient configuration such as the
    numeric-tier selector keeps the value the operator chose. *)

val validate_all : unit -> string list
(** Run every [validate]; returns the (sorted) names that failed —
    [[]] means every registered invariant holds. *)
