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

val read_impl : string -> (Typedtree.structure, string) result
(** Read a [.cmt] file; [Error] on a missing file, a magic-number
    mismatch (different compiler), or a cmt that does not carry a full
    implementation. *)

val read_intf : string -> (Typedtree.signature, string) result
(** Read a [.cmti] file, same contract as {!read_impl}. *)

val load_units :
  root:string ->
  rel_dir:string ->
  lib_name:string ->
  ml:string list ->
  mli:string list ->
  unit_info list
(** Pair every source basename of one library directory with whatever
    annotations exist, probing the library's [.<lib>.objs/byte]
    directory in the lint root first (the [@lint] alias runs inside
    [_build/default]), then under [_build/default] (a run from a
    source checkout). *)

val load_exec_units :
  root:string ->
  rel_dir:string ->
  ml:string list ->
  mli:string list ->
  unit_info list
(** {!load_units} for a directory of executables: [foo.ml]'s
    annotation is [dune__exe__Foo.cmt] in one of the directory's
    [.<exe>.eobjs/byte] directories, one per executables stanza, in
    the same two places ([dune build @<dir>/check] writes them). *)

val unannotated : unit_info list -> string list
(** Sources that have no readable matching annotation. *)
