(* Clean under R1': the only tick is behind a cross-module (Ldot)
   call, which name-based crediting cannot see but the call graph
   can. *)

let drain n =
  let x = ref n in
  while !x > 0 do
    x := Tf_cross_helper.ticking_step !x
  done
