(* A local `step` ticks, the open then shadows it with the
   non-ticking cross-module one. Name-based crediting would pass the
   loop; the typed pass resolves the mention to Tf_cross_helper.step
   and flags it. *)

let step n =
  Budget.tick ();
  n - 1

open Tf_cross_helper

let drain n =
  let x = ref n in
  while !x > 0 do
    x := step !x
  done
