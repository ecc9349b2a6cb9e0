(* Effects fixture, lattice bottom: no ambient state anywhere — every
   export must infer Pure. *)

let add x y = x + y

let double xs = List.map (fun x -> add x x) xs
