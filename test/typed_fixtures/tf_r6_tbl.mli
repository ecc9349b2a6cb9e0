val first_key : int Elem.Tbl.t -> Elem.t option
val listed : unit -> int list
