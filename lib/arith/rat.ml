(* Canonical rationals: den > 0, gcd (|num|, den) = 1. *)

type t = { n : Bigint.t; d : Bigint.t }

let make n d =
  if Bigint.is_zero d then raise Division_by_zero;
  let n, d = if Bigint.sign d < 0 then (Bigint.neg n, Bigint.neg d) else (n, d) in
  if Bigint.is_zero n then { n = Bigint.zero; d = Bigint.one }
  else begin
    let g = Bigint.gcd n d in
    { n = Bigint.div n g; d = Bigint.div d g }
  end

let of_bigint n = { n; d = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints n d = make (Bigint.of_int n) (Bigint.of_int d)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num t = t.n
let den t = t.d

let neg t = { t with n = Bigint.neg t.n }
let abs t = { t with n = Bigint.abs t.n }

(* The fast paths below build a record without [make]. Each one states
   why its result is canonical without a gcd. *)

let is_int t = Bigint.equal t.d Bigint.one

(* gcd (a.n + k·a.d, a.d) = gcd (a.n, a.d) = 1, and the denominator is
   unchanged, so adding an integer k keeps the form canonical; a zero
   sum forces a.d = 1, i.e. 0/1. *)
let add_int a k =
  if is_int a then of_bigint (Bigint.add a.n k)
  else { n = Bigint.add a.n (Bigint.mul k a.d); d = a.d }

let add a b =
  if is_int b then add_int a b.n
  else if is_int a then add_int b a.n
  else
    make
      (Bigint.add (Bigint.mul a.n b.d) (Bigint.mul b.n a.d))
      (Bigint.mul a.d b.d)

let sub a b = add a (neg b)

(* An integer product has denominator 1 and is canonical as it is. *)
let mul a b =
  if is_int a && is_int b then of_bigint (Bigint.mul a.n b.n)
  else make (Bigint.mul a.n b.n) (Bigint.mul a.d b.d)

let div a b = make (Bigint.mul a.n b.d) (Bigint.mul a.d b.n)

(* Swapping a coprime pair keeps it coprime; only the sign moves. *)
let inv t =
  match Bigint.sign t.n with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> { n = t.d; d = t.n }
  | _ -> { n = Bigint.neg t.d; d = Bigint.neg t.n }

let sign t = Bigint.sign t.n
let is_zero t = Bigint.is_zero t.n

(* Denominators are positive, so cross-multiplying preserves order. *)
let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Int.compare sa sb
  else if Bigint.equal a.d b.d then Bigint.compare a.n b.n
  else Bigint.compare (Bigint.mul a.n b.d) (Bigint.mul b.n a.d)

(* Canonical forms are unique, so numeric equality is structural. *)
let equal a b = Bigint.equal a.n b.n && Bigint.equal a.d b.d
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let common_denominator ts =
  let lcm =
    Array.fold_left
      (fun l t ->
        if Bigint.equal l t.d then l
        else Bigint.mul l (Bigint.div t.d (Bigint.gcd l t.d)))
      Bigint.one ts
  in
  ( Array.map
      (fun t ->
        if Bigint.equal t.d lcm then t.n
        else Bigint.mul t.n (Bigint.div lcm t.d))
      ts,
    lcm )

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let ( = ) = equal

let of_float f =
  match classify_float f with
  | FP_nan -> invalid_arg "Rat.of_float: nan has no rational value"
  | FP_infinite -> invalid_arg "Rat.of_float: infinity has no rational value"
  | FP_zero -> zero (* both 0.0 and -0.0 *)
  | FP_normal | FP_subnormal ->
      (* f = m * 2^e with 0.5 <= |m| < 1. The significand has at most
         53 bits, so m * 2^53 is an integer representable both in the
         double and (63-bit) native int, and the decomposition
         f = (m * 2^53) * 2^(e-53) is exact — including subnormals,
         whose frexp mantissa is simply scaled further down. *)
      let m, e = Float.frexp f in
      let m53 = int_of_float (Float.ldexp m 53) in
      let e = Stdlib.( - ) e 53 in
      if Stdlib.( >= ) e 0 then
        of_bigint (Bigint.mul (Bigint.of_int m53) (Bigint.pow Bigint.two e))
      else make (Bigint.of_int m53) (Bigint.pow Bigint.two (-e))

let to_float t =
  (* Exponent-aware: divide the top bits of each side and reapply the
     exponent difference, so extreme magnitudes neither overflow nor
     flush to zero. Round-trips of_float on every finite double (the
     numerator mantissa and power-of-two denominator convert exactly
     through Bigint.frexp). *)
  let fn, en = Bigint.frexp t.n in
  let fd, ed = Bigint.frexp t.d in
  Float.ldexp (fn /. fd) (Stdlib.( - ) en ed)

let to_string t =
  if Bigint.equal t.d Bigint.one then Bigint.to_string t.n
  else Bigint.to_string t.n ^ "/" ^ Bigint.to_string t.d

let pp fmt t = Format.pp_print_string fmt (to_string t)
