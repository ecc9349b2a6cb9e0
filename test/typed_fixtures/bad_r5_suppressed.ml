(* The same shapes as bad_r5.ml, silenced by a reasoned directive. *)

let memo : (string, int) Hashtbl.t = Hashtbl.create 16
let hits = ref 0

(* cqlint: allow R9 — fixture: the counter is diagnostic only *)
let lookup key =
  match Hashtbl.find_opt memo key with
  | Some v ->
      incr hits;
      Some v
  | None -> None
