(* R1' fixture: a solver-style loop and a self-recursive search, neither
   of which ever reaches Budget.tick. *)

let search xs =
  let best = ref 0 in
  while !best < List.length xs do
    incr best
  done;
  !best

let rec explore n = if n = 0 then [] else n :: explore (n - 1)
