(* R3 shapes only the instantiated type reveals: every operand below
   is a plain variable, so no expression head names a domain module. *)

(* A stdlib Hashtbl keyed, through a let-bound helper, by rows whose
   Elem.t list type is inferred. *)
let distinct_rows rows =
  let seen = Hashtbl.create 8 in
  let bump row = Hashtbl.replace seen row () in
  List.iter (fun names -> bump (List.map Elem.sym names)) rows;
  Hashtbl.length seen

(* A Rat.t option compared with <>. *)
let has_threshold (threshold : Rat.t option ref) = !threshold <> None

(* An unapplied Hashtbl.hash, instantiated at int list. *)
let fingerprints (rows : int list list) = List.map Hashtbl.hash rows
