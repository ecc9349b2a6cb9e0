type t = Sym of string | Int of int | Tup of t list

(* cqlint: allow R1 — structural recursion bounded by the element's size *)
let rec compare a b =
  match (a, b) with
  | Sym x, Sym y -> String.compare x y
  | Sym _, (Int _ | Tup _) -> -1
  | Int _, Sym _ -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Int _, Tup _ -> -1
  | Tup _, (Sym _ | Int _) -> 1
  | Tup xs, Tup ys -> compare_list xs ys

(* cqlint: allow R1 — structural recursion bounded by the element's size *)
and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_list xs' ys'

let equal a b = compare a b = 0

(* cqlint: allow R1 — structural recursion bounded by the element's size *)
let rec hash = function
  | Sym s -> Hashtbl.hash s
  | Int n -> n * 2654435761
  | Tup es -> List.fold_left (fun acc e -> (acc * 31) + hash e) 17 es

let sym s = Sym s
let int n = Int n
let tup es = Tup es

(* cqlint: allow R1 — structural recursion bounded by the element's size *)
let rec to_string = function
  | Sym s -> s
  | Int n -> string_of_int n
  | Tup es -> "(" ^ String.concat "," (List.map to_string es) ^ ")"

let pp fmt e = Format.pp_print_string fmt (to_string e)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Row_tbl = Hashtbl.Make (struct
  type nonrec t = t list

  let equal = List.equal equal
  let hash = List.fold_left (fun acc e -> (acc * 31) + hash e) 17
end)
