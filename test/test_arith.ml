(* Unit and property tests for the bignum/rational substrate. *)

let bi = Bigint.of_int
let check_bi msg expect got = Alcotest.check Alcotest.string msg expect (Bigint.to_string got)

let test_of_to_int () =
  List.iter
    (fun n ->
      Alcotest.check Alcotest.int "roundtrip" n (Bigint.to_int (bi n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 40; -(1 lsl 40) ]

let test_to_string () =
  check_bi "zero" "0" Bigint.zero;
  check_bi "one" "1" Bigint.one;
  check_bi "neg" "-17" (bi (-17));
  check_bi "big"
    "340282366920938463463374607431768211456"
    (Bigint.pow (bi 2) 128);
  check_bi "pow3" "59049" (Bigint.pow (bi 3) 10)

let test_of_string () =
  check_bi "parse" "123456789012345678901234567890"
    (Bigint.of_string "123456789012345678901234567890");
  check_bi "parse neg" "-42" (Bigint.of_string "-42");
  check_bi "parse plus" "7" (Bigint.of_string "+7");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (Bigint.of_string ""));
  (match Bigint.of_string "12a" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_divmod_basic () =
  let q, r = Bigint.divmod (bi 17) (bi 5) in
  check_bi "q" "3" q;
  check_bi "r" "2" r;
  let q, r = Bigint.divmod (bi (-17)) (bi 5) in
  check_bi "q neg" "-3" q;
  check_bi "r neg" "-2" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_gcd () =
  check_bi "gcd" "6" (Bigint.gcd (bi 54) (bi 24));
  check_bi "gcd neg" "6" (Bigint.gcd (bi (-54)) (bi 24));
  check_bi "gcd zero" "7" (Bigint.gcd (bi 0) (bi 7));
  check_bi "gcd both zero" "0" (Bigint.gcd Bigint.zero Bigint.zero)

let test_big_arithmetic () =
  (* (2^100 + 1) * (2^100 - 1) = 2^200 - 1 *)
  let p = Bigint.pow (bi 2) 100 in
  let lhs = Bigint.mul (Bigint.add p Bigint.one) (Bigint.sub p Bigint.one) in
  let rhs = Bigint.sub (Bigint.pow (bi 2) 200) Bigint.one in
  Alcotest.check Alcotest.bool "factored" true (Bigint.equal lhs rhs);
  (* string roundtrip at scale *)
  let s = Bigint.to_string lhs in
  Alcotest.check Alcotest.bool "string roundtrip" true
    (Bigint.equal lhs (Bigint.of_string s))

let test_min_max_sign () =
  let bi = Bigint.of_int in
  Alcotest.check Alcotest.int "sign pos" 1 (Bigint.sign (bi 5));
  Alcotest.check Alcotest.int "sign neg" (-1) (Bigint.sign (bi (-5)));
  Alcotest.check Alcotest.int "sign zero" 0 (Bigint.sign Bigint.zero);
  check_bi "min" "-3" (Bigint.min (bi (-3)) (bi 7));
  check_bi "max" "7" (Bigint.max (bi (-3)) (bi 7));
  Alcotest.check Alcotest.bool "hash consistent" true
    (Bigint.hash (bi 12345) = Bigint.hash (Bigint.of_string "12345"))

let test_pow_edges () =
  check_bi "pow 0" "1" (Bigint.pow (bi 7) 0);
  check_bi "pow of zero" "0" (Bigint.pow Bigint.zero 5);
  check_bi "pow of one" "1" (Bigint.pow Bigint.one 1000);
  (match Bigint.pow (bi 2) (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative exponent must raise")

let test_to_int_overflow () =
  let big = Bigint.pow (bi 2) 100 in
  Alcotest.check Alcotest.bool "overflow detected" true
    (Bigint.to_int_opt big = None);
  (match Bigint.to_int big with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "to_int must fail on overflow")

let small_int = QCheck.int_range (-10000) 10000

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add = int add" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      Bigint.to_int (Bigint.add (bi a) (bi b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul = int mul" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      Bigint.to_int (Bigint.mul (bi a) (bi b)) = a * b)

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r, |r| < |b|, sign r = sign a" ~count:500
    (QCheck.pair small_int (QCheck.int_range 1 500))
    (fun (a, b0) ->
      let b = if a mod 3 = 0 then -b0 else b0 in
      let q, r = Bigint.divmod (bi a) (bi b) in
      Bigint.equal (bi a) (Bigint.add (Bigint.mul q (bi b)) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs (bi b)) < 0
      && (Bigint.is_zero r || Bigint.sign r = Bigint.sign (bi a)))

let prop_divmod_multilimb =
  (* Drive the multi-limb Knuth division path: both operands well past
     one 30-bit limb, with occasional near-equal magnitudes (quotient
     digit estimation's worst case). *)
  QCheck.Test.make ~name:"multi-limb divmod identity" ~count:300
    (QCheck.quad small_int (QCheck.int_range 2 8) small_int
       (QCheck.int_range 2 6))
    (fun (a0, ka, b0, kb) ->
      QCheck.assume (b0 <> 0);
      let a =
        Bigint.add (Bigint.mul (bi a0) (Bigint.pow (bi 1000003) ka)) (bi ka)
      in
      let b = Bigint.mul (bi b0) (Bigint.pow (bi 999983) kb) in
      let q, r = Bigint.divmod a b in
      Bigint.equal a (Bigint.add (Bigint.mul q b) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
      && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a))

let test_frexp () =
  let check v =
    let f, e = Bigint.frexp v in
    Alcotest.check (Alcotest.float 0.0) "frexp exact"
      (float_of_string (Bigint.to_string v))
      (Float.ldexp f e)
  in
  check Bigint.zero;
  check Bigint.one;
  check (bi (-12345));
  check (Bigint.pow (bi 2) 100);
  check (Bigint.neg (Bigint.pow (bi 2) 300));
  (* a full 53-bit mantissa survives exactly *)
  check (bi ((1 lsl 53) - 1));
  check (Bigint.mul (bi ((1 lsl 53) - 1)) (Bigint.pow (bi 2) 200))

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"bigint div/rem = int (/)(mod)" ~count:500
    (QCheck.pair small_int (QCheck.int_range 1 500))
    (fun (a, b) ->
      Bigint.to_int (Bigint.div (bi a) (bi b)) = a / b
      && Bigint.to_int (Bigint.rem (bi a) (bi b)) = a mod b)

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare consistent with int order" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      compare a b = Bigint.compare (bi a) (bi b))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"of_string ∘ to_string = id" ~count:300
    (QCheck.pair small_int (QCheck.int_range 0 6))
    (fun (a, k) ->
      let x = Bigint.mul (bi a) (Bigint.pow (bi 1000003) k) in
      Bigint.equal x (Bigint.of_string (Bigint.to_string x)))

(* --- rationals ------------------------------------------------------- *)

let rational = QCheck.pair small_int (QCheck.int_range 1 500)
let rat_of (n, d) = Rat.of_ints n d

let prop_rat_add_comm =
  QCheck.Test.make ~name:"rat add commutative" ~count:300
    (QCheck.pair rational rational) (fun (a, b) ->
      Rat.equal (Rat.add (rat_of a) (rat_of b)) (Rat.add (rat_of b) (rat_of a)))

let prop_rat_mul_distributes =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:300
    (QCheck.triple rational rational rational) (fun (a, b, c) ->
      let a = rat_of a and b = rat_of b and c = rat_of c in
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_rat_inverse =
  QCheck.Test.make ~name:"x * 1/x = 1 for x <> 0" ~count:300 rational
    (fun p ->
      let x = rat_of p in
      QCheck.assume (not (Rat.is_zero x));
      Rat.equal (Rat.mul x (Rat.inv x)) Rat.one)

let prop_rat_canonical =
  QCheck.Test.make ~name:"canonical form: den > 0, coprime" ~count:300
    (QCheck.pair small_int (QCheck.int_range (-500) 500))
    (fun (n, d) ->
      QCheck.assume (d <> 0);
      let r = Rat.of_ints n d in
      Bigint.sign (Rat.den r) > 0
      && Bigint.equal (Bigint.gcd (Rat.num r) (Rat.den r)) Bigint.one
      && ((not (Rat.is_zero r)) || Bigint.equal (Rat.den r) Bigint.one))

(* Every operation against a gcd-normalizing reference: [Rat.make] on
   the textbook formula. The operands mix integers, zero, negatives,
   small fractions and dyadics from [Rat.of_float] across normal and
   subnormal exponents, so both the gcd-free fast paths (integer
   operands, [inv], [compare], [equal]) and the general ones run. *)
let mixed_rat =
  let open QCheck.Gen in
  let dyadic =
    map2
      (fun m e -> Rat.of_float (Float.ldexp m e))
      (float_range (-1.0) 1.0)
      (oneof [ int_range (-70) 70; int_range (-1074) (-1000) ])
  in
  QCheck.make ~print:Rat.to_string
    (frequency
       [
         (1, return Rat.zero);
         (3, map Rat.of_int (int_range (-50) 50));
         (3, map2 Rat.of_ints (int_range (-500) 500) (int_range 1 60));
         (4, dyadic);
       ])

let canonical r =
  let n = Rat.num r and d = Rat.den r in
  Bigint.sign d > 0
  && Bigint.equal (Bigint.gcd n d) Bigint.one
  && ((not (Bigint.is_zero n)) || Bigint.equal d Bigint.one)

let same_form expect got =
  canonical got
  && Bigint.equal (Rat.num expect) (Rat.num got)
  && Bigint.equal (Rat.den expect) (Rat.den got)

let prop_rat_ops_reference =
  QCheck.Test.make ~name:"every rat op canonical and = gcd reference"
    ~count:1000 (QCheck.pair mixed_rat mixed_rat) (fun (a, b) ->
      let open Bigint in
      let an = Rat.num a and ad = Rat.den a in
      let bn = Rat.num b and bd = Rat.den b in
      let ref_sub = Rat.make (sub (mul an bd) (mul bn ad)) (mul ad bd) in
      let raises f =
        match f () with exception Division_by_zero -> true | _ -> false
      in
      same_form (Rat.make (add (mul an bd) (mul bn ad)) (mul ad bd)) (Rat.add a b)
      && same_form ref_sub (Rat.sub a b)
      && same_form (Rat.make (mul an bn) (mul ad bd)) (Rat.mul a b)
      && same_form (Rat.make (neg an) ad) (Rat.neg a)
      && (if Rat.is_zero b then
            raises (fun () -> Rat.div a b) && raises (fun () -> Rat.inv b)
          else
            same_form (Rat.make (mul an bd) (mul ad bn)) (Rat.div a b)
            && same_form (Rat.make bd bn) (Rat.inv b))
      && Rat.compare a b = Rat.sign ref_sub
      && Rat.equal a b = Rat.is_zero ref_sub
      && Rat.equal a a
      && Rat.compare a a = 0)

let prop_rat_compare =
  QCheck.Test.make ~name:"rat compare = float compare (away from ties)"
    ~count:300 (QCheck.pair rational rational) (fun (a, b) ->
      let ra = rat_of a and rb = rat_of b in
      QCheck.assume (not (Rat.equal ra rb));
      let c = Rat.compare ra rb in
      let fc = compare (Rat.to_float ra) (Rat.to_float rb) in
      c * fc > 0)

let test_rat_division_by_zero () =
  (match Rat.of_ints 1 0 with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "den 0 must raise");
  (match Rat.inv Rat.zero with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "inv 0 must raise");
  match Rat.div Rat.one Rat.zero with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "div by 0 must raise"

(* --- Rat.of_float: the exact float→rational bridge ------------------- *)

let check_rat msg expect got =
  Alcotest.check Alcotest.string msg expect (Rat.to_string got)

let test_of_float_exact () =
  check_rat "half" "1/2" (Rat.of_float 0.5);
  check_rat "neg dyadic" "-3/8" (Rat.of_float (-0.375));
  check_rat "integer" "42" (Rat.of_float 42.0);
  check_rat "large power of two" (Bigint.to_string (Bigint.pow (bi 2) 80))
    (Rat.of_float 0x1p80);
  (* 0.1 is not 1/10: it is the nearest double, exactly. *)
  check_rat "0.1 as stored" "3602879701896397/36028797018963968"
    (Rat.of_float 0.1)

let test_of_float_edges () =
  check_rat "positive zero" "0" (Rat.of_float 0.0);
  check_rat "negative zero" "0" (Rat.of_float (-0.0));
  (* Smallest positive subnormal: 2^-1074. *)
  Alcotest.check Alcotest.bool "min subnormal" true
    (Rat.equal (Rat.of_float 0x1p-1074)
       (Rat.div Rat.one (Rat.of_bigint (Bigint.pow (bi 2) 1074))));
  (* Largest finite double: (2^53 - 1) * 2^971. *)
  Alcotest.check Alcotest.bool "max_float" true
    (Rat.equal
       (Rat.of_float Float.max_float)
       (Rat.of_bigint
          (Bigint.mul
             (bi ((1 lsl 53) - 1))
             (Bigint.pow (bi 2) 971))));
  List.iter
    (fun f ->
      match Rat.of_float f with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "nan/infinity must raise")
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let prop_of_float_roundtrip =
  (* of_float is exact, and to_float rounds back to the nearest double
     — which is the one we started from. Spans normals across the full
     exponent range and subnormals. *)
  QCheck.Test.make ~name:"to_float (of_float f) = f" ~count:1000
    (QCheck.triple (QCheck.float_range (-1.0) 1.0)
       (QCheck.int_range (-1080) 1020)
       QCheck.bool)
    (fun (m, e, flip) ->
      let f = Float.ldexp (if flip then -.m else m) e in
      QCheck.assume (Float.is_finite f);
      Float.equal (Rat.to_float (Rat.of_float f)) f)

let test_rat_to_string () =
  Alcotest.check Alcotest.string "int" "3" (Rat.to_string (Rat.of_int 3));
  Alcotest.check Alcotest.string "frac" "-2/3" (Rat.to_string (Rat.of_ints 4 (-6)));
  Alcotest.check Alcotest.string "zero" "0" (Rat.to_string (Rat.of_ints 0 5))

let () =
  Alcotest.run "arith"
    [
      ( "bigint",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "divmod basics" `Quick test_divmod_basic;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "big arithmetic" `Quick test_big_arithmetic;
          Alcotest.test_case "min/max/sign/hash" `Quick test_min_max_sign;
          Alcotest.test_case "pow edges" `Quick test_pow_edges;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Test_util.qcheck prop_add_matches_int;
          Test_util.qcheck prop_mul_matches_int;
          Test_util.qcheck prop_divmod_identity;
          Test_util.qcheck prop_divmod_matches_int;
          Test_util.qcheck prop_divmod_multilimb;
          Alcotest.test_case "frexp" `Quick test_frexp;
          Test_util.qcheck prop_compare_total_order;
          Test_util.qcheck prop_string_roundtrip;
        ] );
      ( "rat",
        [
          Alcotest.test_case "to_string" `Quick test_rat_to_string;
          Alcotest.test_case "division by zero" `Quick test_rat_division_by_zero;
          Alcotest.test_case "of_float exact values" `Quick test_of_float_exact;
          Alcotest.test_case "of_float edges" `Quick test_of_float_edges;
          Test_util.qcheck prop_of_float_roundtrip;
          Test_util.qcheck prop_rat_add_comm;
          Test_util.qcheck prop_rat_mul_distributes;
          Test_util.qcheck prop_rat_inverse;
          Test_util.qcheck prop_rat_canonical;
          Test_util.qcheck prop_rat_compare;
          Test_util.qcheck prop_rat_ops_reference;
        ] );
    ]
