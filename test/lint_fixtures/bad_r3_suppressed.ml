(* The same shapes as bad_r3.ml, silenced by reasoned directives. *)

(* cqlint: allow R3 — fixture: keys are shallow ints in this table *)
let fingerprint x = Hashtbl.hash x

(* cqlint: allow R3 — fixture: operands are canonical by construction *)
let reaches_one a b = Rat.add a b = Rat.one

let cache = Hashtbl.create 7

(* cqlint: allow R3 — fixture: table is per-call and tiny *)
let remember x = Hashtbl.replace cache (Rat.of_int x) x
