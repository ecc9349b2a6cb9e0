(** A small text format for databases, labelings and training databases.

    Grammar (one item per line; [#] starts a comment):
    {v
      R(a, b)        a fact over relation R
      +e             e is a positive entity   (adds eta(e))
      -e             e is a negative entity   (adds eta(e))
      ?e             e is an unlabeled entity (adds eta(e))
    v}
    Elements are identifiers ([[A-Za-z_][A-Za-z0-9_']*]), integers, or
    parenthesized tuples [(a,b,...)] of elements.

    The parser is hardened against malformed and adversarial input:
    conflicting labels for the same entity ([+a] then [-a]) are
    rejected, lines are capped at 65536 characters, fact arities and
    tuple widths at 64, and every error message names the offending
    token. *)

exception Parse_error of string
(** Raised with a human-readable message (including a line number) on
    malformed input. *)

type document = {
  db : Db.t;  (** all facts, including the generated [eta] facts *)
  labeling : Labeling.t;  (** labels of the [+]/[-] entities *)
}

(** [parse_string s] parses a document.
    @raise Parse_error on malformed input. *)
val parse_string : string -> document

(** [parse_file path] parses the file at [path].
    @raise Parse_error on malformed input.
    @raise Sys_error if the file cannot be read. *)
val parse_file : string -> document

(** [training_of_document doc] interprets the document as a training
    database; unlabeled ([?]) entities are rejected.
    @raise Invalid_argument if some entity is unlabeled. *)
val training_of_document : document -> Labeling.training

(** [print_training t] renders a training database in the format above. *)
val print_training : Labeling.training -> string

(** [print_db db] renders a plain database ([?] lines for entities). *)
val print_db : Db.t -> string
