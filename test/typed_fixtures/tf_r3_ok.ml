(* R3 negative fixture: Elem.t has one canonical representation and
   Elem.compare orders it as Stdlib.compare does, so = on it is fine;
   Hashtbl.hash reads all of a string. *)

let same (a : Elem.t) b = a = b
let name_hash (s : string) = Hashtbl.hash s
