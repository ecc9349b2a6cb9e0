(* R6 positive through functor instances: [Elem.Tbl] and the local
   [Ids] are [Hashtbl.Make] applications, so their [fold] and [iter]
   visit bindings in bucket order, exactly like [Hashtbl.fold]. A rule
   that matched sinks by the name [Hashtbl.*] would pass both; the
   unit declaring each function ([Stdlib__Hashtbl]) gives them away. *)

module Ids = Hashtbl.Make (Int)

let first_key (tbl : int Elem.Tbl.t) =
  Elem.Tbl.fold (fun k _ acc -> match acc with None -> Some k | Some _ -> acc) tbl None

let ids : string Ids.t = Ids.create 8

let listed () =
  let out = ref [] in
  Ids.iter (fun k _ -> out := k :: !out) ids;
  !out
