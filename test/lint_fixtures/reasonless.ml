(* R0 fixture: the directive below has no reason, so it must not
   suppress the R3 finding and must itself be reported. *)

(* cqlint: allow R3 *)
let fingerprint x = Hashtbl.hash x
