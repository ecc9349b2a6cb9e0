(* Clean under R1': the loop ticks directly, the recursion ticks
   through a helper it calls. *)

let step () = Budget.tick ~what:"fixture: step" ()

let search xs =
  let best = ref 0 in
  while !best < List.length xs do
    Budget.tick ~what:"fixture: search" ();
    incr best
  done;
  !best

let rec explore n =
  step ();
  if n = 0 then [] else n :: explore (n - 1)
