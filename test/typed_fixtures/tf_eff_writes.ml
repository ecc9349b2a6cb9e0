(* Effects fixture: WritesGlobal. [hits] is top-level mutable state
   with no Runtime_state registration, so [record] infers
   writes-global and is an R9 finding; [count] only reads it —
   reads-cache, not a finding. *)

let hits = ref 0

let record () = incr hits

let count () = !hits
