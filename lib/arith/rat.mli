(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is strictly
    positive and the numerator/denominator pair is coprime, so
    structural equality of canonical forms coincides with numeric
    equality (and {!compare} is a total order consistent with it).
    This backs the exact simplex solver used for linear separability. *)

type t

val zero : t
val one : t
val minus_one : t

(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

val of_bigint : Bigint.t -> t
val of_int : int -> t

(** [of_ints num den] is [num/den] from native ints.
    @raise Division_by_zero if [den] is zero. *)
val of_ints : int -> int -> t

val num : t -> Bigint.t
val den : t -> Bigint.t

(** {2 Arithmetic}

    Every result is canonical. Among the operations below, only {!div}
    and the general cases of {!add} and {!mul} normalize through
    {!make} (one gcd); the others keep the form canonical without
    one:
    - {!neg}, {!abs}: the numerator's sign does not affect coprimality;
    - {!add} (and {!sub}) when one operand is an integer [k]: the
      denominator is kept and [gcd (n + k·d, d) = gcd (n, d) = 1];
    - {!mul} of two integers: the denominator is [1];
    - {!inv}: swapping a coprime pair keeps it coprime, and the sign
      moves to the numerator;
    - {!compare} cross-multiplies (denominators are positive) and
      {!equal} compares the pairs structurally, since each value has
      exactly one canonical form. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero when dividing by zero. *)
val div : t -> t -> t

(** @raise Division_by_zero on [inv zero]. *)
val inv : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

(** [common_denominator ts] is [(ns, l)] with [l > 0] the least common
    multiple of the denominators of [ts] and [ns.(i) = ts.(i) · l], an
    integer. Since [l > 0], comparing integer combinations of the
    [ns] is comparing the same combinations of [ts], without a gcd
    per term; [Linsep.classify] and certification are built on it.
    The empty array gives [([||], 1)]. *)
val common_denominator : t array -> Bigint.t array * Bigint.t

val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool

(** [of_float f] is the exact rational value of the IEEE double [f]:
    every finite double (normal, subnormal, or zero of either sign) is
    a dyadic rational [m/2^k] and converts without rounding, so
    [of_float] is injective on finite non-zero doubles and
    [of_float (-0.0) = zero]. This is the bridge the certification
    layer uses to re-check numeric solver output in exact arithmetic.
    @raise Invalid_argument on nan or infinities, which have no
    rational value. *)
val of_float : float -> t

(** [to_float t] is a nearest-double approximation (for reporting only). *)
val to_float : t -> float

(** [to_string t] renders ["n"] or ["n/d"]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
