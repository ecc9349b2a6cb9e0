(** Shared-state escape analysis — the Typedtree pass behind R10.

    Tracks mutable values allocated {e inside} a function (refs,
    arrays, [Hashtbl]s, [Buffer]s, [Bytes], ...) and reports each one
    that crosses a fork/runner boundary: passed to
    [Isolate.run]/[Isolate.spawn], applied through a [*runner]-record
    [.run] field, or captured by a closure handed across either —
    including transitively, through intermediate let-bindings. After a
    fork the child mutates a copy-on-write copy, so such writes are
    silently lost at the merge; under an OCaml 5 domains backend the
    same aliasing becomes a data race.

    A mutable allocated {e inside} the escaping thunk is not reported —
    it is born on the far side of the boundary and never aliased. *)

type escape = {
  esc_head : string;
      (** the boundary crossed: ["Isolate.run"], ["Isolate.spawn"] or
          ["runner.run"] *)
  esc_what : string;  (** allocation head: ["ref"], ["Hashtbl"], ... *)
  esc_name : string;  (** the local binding's source name *)
  esc_line : int;  (** allocation site *)
  esc_col : int;
  esc_encl : string;  (** enclosing top-level binding *)
  esc_bline : int;  (** the crossing application *)
  esc_bcol : int;
}

val analyze : Typedtree.structure -> escape list
(** One module at a time, in source order, deduplicated per
    (allocation, boundary). *)
