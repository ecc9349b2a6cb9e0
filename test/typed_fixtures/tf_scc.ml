(* Mutual recursion: neither function mentions itself, so a
   self-mention check is blind to the cycle; the SCC condensation is
   not. *)

let rec ping n = if n = 0 then 0 else pong (n - 1)
and pong n = ping (n / 2)

(* Direct recursion that ticks: cyclic, but budget-disciplined. *)
let rec down n =
  if n = 0 then 0
  else begin
    Budget.tick ();
    down (n - 1)
  end
