(* The same state as bad_r5.ml, properly registered: a site mentioned
   inside a Runtime_state.register call counts as registered for R9. *)

let memo : (string, int) Hashtbl.t = Hashtbl.create 16
let hits = ref 0

let () =
  Runtime_state.register ~name:"fixture.memo"
    ~validate:(fun () -> Hashtbl.length memo >= 0)
    (fun () ->
      Hashtbl.reset memo;
      hits := 0)

let lookup key =
  match Hashtbl.find_opt memo key with
  | Some v ->
      incr hits;
      Some v
  | None -> None
