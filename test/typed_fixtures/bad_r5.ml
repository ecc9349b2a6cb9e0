(* R9 fixture: top-level mutable solver state that never registers with
   Runtime_state — an abort can leave it stale with no reset path.
   [lookup] writes it, so it is the finding; a function-local table is
   fine and must not fire. *)

let memo : (string, int) Hashtbl.t = Hashtbl.create 16
let hits = ref 0

let lookup key =
  match Hashtbl.find_opt memo key with
  | Some v ->
      incr hits;
      Some v
  | None -> None

let local_is_fine xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs
