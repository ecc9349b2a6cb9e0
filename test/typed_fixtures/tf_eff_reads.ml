(* Effects fixture: ReadsCache of a Runtime_state-registered cache.
   [lookup] writes the cache but the write is registered, so it stays
   at reads-cache level and is not an R9 finding; [peek] only reads. *)

let cache : (int, int) Hashtbl.t = Hashtbl.create 8

let () =
  Runtime_state.register ~name:"tf_eff.cache" (fun () -> Hashtbl.reset cache)

let lookup k =
  match Hashtbl.find_opt cache k with
  | Some v -> v
  | None ->
      let v = k * k in
      Hashtbl.replace cache k v;
      v

let peek k = Hashtbl.find_opt cache k
