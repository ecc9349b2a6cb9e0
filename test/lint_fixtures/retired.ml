(* cqlint: allow R5 — registered elsewhere *)
let x = 1
