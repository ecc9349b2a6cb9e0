(* R2 and R3 in an executable's unit: an unconvertible raise and a
   polymorphic = on Rat.t. *)

let () =
  if Array.length Sys.argv > 9 then raise (Sys_error "fixture");
  if Rat.of_int 1 = Rat.one then print_string ""
