(** Locating and reading the [-bin-annot] output ([.cmt]/[.cmti]) dune
    produces alongside every compiled module — the input of the typed
    lint pass.

    A missing or unreadable annotation file (fresh checkout, different
    compiler version) leaves the unit's field [None] rather than
    raising; {!unannotated} names the affected sources, and the
    driver refuses to lint without them. *)

type unit_info = {
  u_module : string;  (** capitalized module name, e.g. ["Cq_sep"] *)
  u_ml : string option;  (** root-relative [.ml] path, when present *)
  u_mli : string option;  (** root-relative [.mli] path, when present *)
  u_impl : Typedtree.structure option;  (** typed tree from the [.cmt] *)
  u_intf : Typedtree.signature option;  (** typed signature from the [.cmti] *)
}

val module_name_of_source : string -> string
(** ["lib/core/cq_sep.ml"] → ["Cq_sep"]. *)

val read_impl : string -> (Typedtree.structure, string) result
(** Read a [.cmt] file; [Error] on a missing file, a magic-number
    mismatch (different compiler), or a cmt that does not carry a full
    implementation. *)

val read_intf : string -> (Typedtree.signature, string) result
(** Read a [.cmti] file, same contract as {!read_impl}. *)

val obj_dir_candidates :
  root:string -> rel_dir:string -> lib_name:string -> string list
(** Where dune may have put the library's annotations: the in-context
    [.<lib>.objs/byte] directory (the [@lint] alias runs inside
    [_build/default]) and the [_build/default] fallback for runs from
    a source checkout. *)

val load_units :
  root:string ->
  rel_dir:string ->
  lib_name:string ->
  ml:string list ->
  mli:string list ->
  unit_info list
(** Pair every source basename of one library directory with whatever
    annotations exist, probing {!obj_dir_candidates} in order. *)

val unannotated : unit_info list -> string list
(** Sources that have no readable matching annotation. *)
