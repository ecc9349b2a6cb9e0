(** Universe elements of databases.

    Elements are symbolic constants, integers, or tuples of elements.
    Tuples arise from direct products of databases (the element of a
    product is the tuple of its projections) and nest freely, so the
    product construction closes over its own output. A total order is
    provided for use in sets and maps. *)

type t =
  | Sym of string  (** named constant *)
  | Int of int  (** integer constant (convenient for generators) *)
  | Tup of t list  (** product element *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** [sym s] is [Sym s]. *)
val sym : string -> t

(** [int n] is [Int n]. *)
val int : int -> t

(** [tup es] is [Tup es]. *)
val tup : t list -> t

(** [to_string e] renders [Sym]/[Int] atomically and tuples as
    [(e1,...,en)]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** Hash tables keyed by elements, hashed in full by {!hash}. *)
module Tbl : Hashtbl.S with type key = t

(** Hash tables keyed by rows of elements (a relation's tuples, a
    join's shared columns), hashed in full by {!hash}. *)
module Row_tbl : Hashtbl.S with type key = t list
