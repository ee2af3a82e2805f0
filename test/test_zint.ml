(* Unit and property tests for the bignum substrate. The properties
   compare against native [int] arithmetic on ranges where it is exact,
   and against string-level identities for values beyond it. *)

open Zarith_lite

let zint = Alcotest.testable Zint.pp Zint.equal

let check_z = Alcotest.check zint

(* qcheck generator for ints that exercise sign and magnitude mixes
   without overflowing native multiplication. *)
let small_int = QCheck2.Gen.int_range (-1_000_000) 1_000_000
let any_int = QCheck2.Gen.int_range (-0x3FFF_FFFF_FFFF) 0x3FFF_FFFF_FFFF

let test_constants () =
  check_z "zero" (Zint.of_int 0) Zint.zero;
  check_z "one" (Zint.of_int 1) Zint.one;
  check_z "minus_one" (Zint.of_int (-1)) Zint.minus_one;
  Alcotest.(check int) "sign zero" 0 (Zint.sign Zint.zero);
  Alcotest.(check int) "sign pos" 1 (Zint.sign (Zint.of_int 17));
  Alcotest.(check int) "sign neg" (-1) (Zint.sign (Zint.of_int (-17)))

let test_to_string () =
  Alcotest.(check string) "zero" "0" (Zint.to_string Zint.zero);
  Alcotest.(check string) "small" "12345" (Zint.to_string (Zint.of_int 12345));
  Alcotest.(check string) "negative" "-987654321" (Zint.to_string (Zint.of_int (-987654321)));
  (* Chunked decimal printing must pad interior chunks. *)
  Alcotest.(check string) "padding" "1000000007" (Zint.to_string (Zint.of_int 1000000007))

let test_of_string () =
  check_z "roundtrip" (Zint.of_int 424242) (Zint.of_string "424242");
  check_z "negative" (Zint.of_int (-5)) (Zint.of_string "-5");
  check_z "plus sign" (Zint.of_int 5) (Zint.of_string "+5");
  Alcotest.check_raises "empty" (Invalid_argument "Zint.of_string: empty string") (fun () ->
      ignore (Zint.of_string ""));
  Alcotest.check_raises "junk" (Invalid_argument "Zint.of_string: bad digit") (fun () ->
      ignore (Zint.of_string "12a3"))

let test_big_values () =
  (* 2^100, computed two ways. *)
  let a = Zint.pow Zint.two 100 in
  let b = Zint.mul (Zint.pow Zint.two 60) (Zint.pow Zint.two 40) in
  check_z "2^100" a b;
  Alcotest.(check string) "2^100 decimal" "1267650600228229401496703205376" (Zint.to_string a);
  let big = Zint.of_string "123456789012345678901234567890" in
  Alcotest.(check string) "string roundtrip" "123456789012345678901234567890"
    (Zint.to_string big);
  Alcotest.(check bool) "doesn't fit" false (Zint.fits_int big);
  Alcotest.(check (option int)) "to_int_opt" None (Zint.to_int_opt big)

let test_min_int () =
  let m = Zint.of_int min_int in
  check_z "neg(neg(min))" m (Zint.neg (Zint.neg m));
  Alcotest.(check int) "back to int" min_int (Zint.to_int m)

let test_division () =
  let q, r = Zint.div_rem (Zint.of_int 7) (Zint.of_int 2) in
  check_z "7/2" (Zint.of_int 3) q;
  check_z "7%2" (Zint.of_int 1) r;
  (* Truncated division: remainder has the dividend's sign. *)
  let q, r = Zint.div_rem (Zint.of_int (-7)) (Zint.of_int 2) in
  check_z "-7/2" (Zint.of_int (-3)) q;
  check_z "-7%2" (Zint.of_int (-1)) r;
  check_z "fdiv -7 2" (Zint.of_int (-4)) (Zint.fdiv (Zint.of_int (-7)) (Zint.of_int 2));
  check_z "cdiv 7 2" (Zint.of_int 4) (Zint.cdiv (Zint.of_int 7) (Zint.of_int 2));
  check_z "cdiv -7 2" (Zint.of_int (-3)) (Zint.cdiv (Zint.of_int (-7)) (Zint.of_int 2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Zint.div Zint.one Zint.zero))

let test_gcd_lcm () =
  check_z "gcd 12 18" (Zint.of_int 6) (Zint.gcd (Zint.of_int 12) (Zint.of_int 18));
  check_z "gcd neg" (Zint.of_int 6) (Zint.gcd (Zint.of_int (-12)) (Zint.of_int 18));
  check_z "gcd zero" (Zint.of_int 7) (Zint.gcd Zint.zero (Zint.of_int 7));
  check_z "lcm 4 6" (Zint.of_int 12) (Zint.lcm (Zint.of_int 4) (Zint.of_int 6));
  check_z "lcm zero" Zint.zero (Zint.lcm Zint.zero (Zint.of_int 5))

let test_pow () =
  check_z "x^0" Zint.one (Zint.pow (Zint.of_int 9) 0);
  check_z "3^4" (Zint.of_int 81) (Zint.pow (Zint.of_int 3) 4);
  check_z "(-2)^3" (Zint.of_int (-8)) (Zint.pow (Zint.of_int (-2)) 3);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Zint.pow: negative exponent") (fun () ->
      ignore (Zint.pow Zint.two (-1)))

(* Hash values of the limb fold, pinned so that a representation change
   cannot silently reorder the solver's hash-table buckets (and with them
   the order of cached verdicts and reports). *)
let test_hash_golden () =
  let check name expected z = Alcotest.(check int) name expected (Zint.hash z) in
  let p2 = Zint.pow Zint.two in
  check "0" 7 Zint.zero;
  check "1" 249 Zint.one;
  check "-1" 187 Zint.minus_one;
  check "2^15" 7689 (p2 15);
  check "-2^15" 5767 (Zint.neg (p2 15));
  check "2^31-1" 32743193 (Zint.of_int 2147483647);
  check "-2^31" 178748 (Zint.of_int (-2147483648));
  check "2^61-1" 31498712377 (Zint.pred (p2 61));
  check "2^61" 229033210 (p2 61);
  check "max_int" 31498712379 (Zint.of_int max_int);
  check "min_int" 171774910 (Zint.of_int min_int);
  check "2^100" 220100913912 (p2 100);
  check "-2^100" 165075685690 (Zint.neg (p2 100))

(* Results that cross the native/limb threshold in either direction. *)
let test_threshold_crossing () =
  let small_max = (1 lsl 61) - 1 in
  let p61 = Zint.pow Zint.two 61 in
  check_z "2^61 - 1 via pred" (Zint.of_int small_max) (Zint.pred p61);
  check_z "(2^61+5) - 10" (Zint.of_int (small_max - 4))
    (Zint.sub (Zint.add p61 (Zint.of_int 5)) (Zint.of_int 10));
  Alcotest.(check bool) "structurally canonical" true
    (Zint.sub (Zint.add p61 (Zint.of_int 5)) (Zint.of_int 10) = Zint.of_int (small_max - 4));
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "of_int %d canonical" v) true
        (Zint.of_int v = Zint.of_string (string_of_int v)))
    [ small_max; -small_max; small_max + 1; -small_max - 1; max_int; min_int ];
  Alcotest.(check bool) "2^62 / 2 = 2^61" true
    (Zint.div (Zint.pow Zint.two 62) Zint.two = p61);
  Alcotest.(check bool) "2^100 / 2^90 = 1024" true
    (Zint.div (Zint.pow Zint.two 100) (Zint.pow Zint.two 90) = Zint.of_int 1024);
  Alcotest.(check bool) "max_int - max_int" true
    (Zint.sub (Zint.of_int max_int) (Zint.of_int max_int) = Zint.zero);
  Alcotest.(check string) "small_max + small_max" "4611686018427387902"
    (Zint.to_string (Zint.add (Zint.of_int small_max) (Zint.of_int small_max)));
  Alcotest.(check string) "2^31 * 2^31" "4611686018427387904"
    (Zint.to_string (Zint.mul (Zint.of_int (1 lsl 31)) (Zint.of_int (1 lsl 31))));
  Alcotest.(check (option int)) "min_int back" (Some min_int)
    (Zint.to_int_opt (Zint.neg (Zint.pow Zint.two 62)));
  Alcotest.(check (option int)) "2^62 does not fit" None
    (Zint.to_int_opt (Zint.pow Zint.two 62));
  Alcotest.(check bool) "fits max_int" true (Zint.fits_int (Zint.of_int max_int));
  Alcotest.(check string) "neg min_int" "4611686018427387904"
    (Zint.to_string (Zint.neg (Zint.of_int min_int)));
  check_z "gcd across threshold" (Zint.pow Zint.two 20)
    (Zint.gcd (Zint.pow Zint.two 80) (Zint.mul (Zint.of_int 3) (Zint.pow Zint.two 20)))

(* ---- properties ----------------------------------------------------------- *)

let prop ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ?print ~name gen f)

(* ---- boundary generators ----------------------------------------------------

   Values near the native/limb threshold 2^61 - 1, near 2^62 (one past
   [max_int]), at the ends of the native range, far beyond it, and
   small: the operations must agree on both sides of every edge. *)

let near_threshold =
  let open QCheck2.Gen in
  let p2 n = Zint.pow Zint.two n in
  let anchor =
    oneofl
      [ Zint.pred (p2 61); p2 61; p2 62; Zint.of_int max_int; Zint.of_int min_int; p2 63;
        p2 75; p2 90 ]
  in
  let* a = anchor and* off = int_range (-1000) 1000 and* negate = bool in
  let z = Zint.add a (Zint.of_int off) in
  return (if negate then Zint.neg z else z)

let small_z = QCheck2.Gen.map Zint.of_int (QCheck2.Gen.int_range (-100_000) 100_000)

(* Mixed small and limb operands, weighted towards the threshold. *)
let boundary_z =
  QCheck2.Gen.frequency
    [ (3, near_threshold); (1, small_z); (1, QCheck2.Gen.map Zint.of_int any_int) ]

(* Native ints at both ends of the native range, where the native
   operations are still an exact oracle. *)
let edge_int =
  let open QCheck2.Gen in
  let* anchor = oneofl [ max_int; min_int; (1 lsl 61) - 1; -((1 lsl 61) - 1); 1 lsl 61; 0 ]
  and* off = oneof [ int_range (-3) 3; int_range (-1000) 1000 ] in
  let v = anchor + off in
  (* Keep the offset from wrapping around the native range. *)
  return (if (anchor > 0 && v < 0) || (anchor < 0 && v > 0) then anchor else v)

let pz = Zint.to_string
let pz2 = QCheck2.Print.pair pz pz
let pz3 = QCheck2.Print.triple pz pz pz
let pi2 = QCheck2.Print.(pair int int)
let bz2 = QCheck2.Gen.pair boundary_z boundary_z
let ei2 = QCheck2.Gen.pair edge_int edge_int

let add_overflows a b = let s = a + b in (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0)

let boundary_properties =
  [ prop ~print:pz "canonical: equal iff structurally equal" boundary_z (fun a ->
        (* Rebuilding [a] through arithmetic that goes above and back
           below the threshold must land on the same representation. *)
        let b = Zint.sub (Zint.add a (Zint.pow Zint.two 64)) (Zint.pow Zint.two 64) in
        let c = Zint.of_string (Zint.to_string a) in
        Zint.equal a b && a = b && a = c && Zint.hash a = Zint.hash b);
    prop ~print:QCheck2.Print.int "of_int is canonical at the range edges" edge_int (fun v ->
        let z = Zint.of_int v in
        z = Zint.of_string (string_of_int v)
        && z = Zint.sub (Zint.add z (Zint.pow Zint.two 64)) (Zint.pow Zint.two 64));
    prop ~print:pz2 "equal agrees with structural equality" bz2 (fun (a, b) ->
        Zint.equal a b = (a = b) && Zint.equal a b = (Zint.compare a b = 0));
    prop ~print:pz2 "add commutes and sub inverts" bz2 (fun (a, b) ->
        let s = Zint.add a b in
        Zint.equal s (Zint.add b a)
        && Zint.sub s b = a
        && Zint.is_zero (Zint.add a (Zint.neg a)));
    prop ~print:pz3 "add associative" (QCheck2.Gen.triple boundary_z boundary_z boundary_z)
      (fun (a, b, c) -> Zint.add (Zint.add a b) c = Zint.add a (Zint.add b c));
    prop ~print:pz3 "mul distributes over add"
      (QCheck2.Gen.triple boundary_z boundary_z boundary_z) (fun (a, b, c) ->
        Zint.mul a (Zint.add b c) = Zint.add (Zint.mul a b) (Zint.mul a c)
        && Zint.mul a b = Zint.mul b a);
    prop ~print:pz2 "compare is the sign of the difference" bz2 (fun (a, b) ->
        Zint.compare a b = Zint.sign (Zint.sub a b)
        && Zint.compare a b = - Zint.compare b a);
    prop ~print:pz2 "div_rem reconstructs across the threshold" bz2 (fun (a, b) ->
        QCheck2.assume (not (Zint.is_zero b));
        let q, r = Zint.div_rem a b in
        Zint.add (Zint.mul q b) r = a
        && Zint.compare (Zint.abs r) (Zint.abs b) < 0
        && (Zint.is_zero r || Zint.sign r = Zint.sign a)
        && q = Zint.div a b && r = Zint.rem a b);
    prop ~print:pz2 "fdiv/cdiv bracket the quotient" bz2 (fun (a, b) ->
        QCheck2.assume (not (Zint.is_zero b));
        (* b * fdiv(a, b) <= a <= b * cdiv(a, b) when b > 0, mirrored
           for b < 0, and the two differ by at most one. *)
        let f = Zint.fdiv a b and c = Zint.cdiv a b in
        let lo = Zint.mul f b and hi = Zint.mul c b in
        let gap = Zint.sub c f in
        (if Zint.sign b > 0 then Zint.compare lo a <= 0 && Zint.compare a hi <= 0
         else Zint.compare hi a <= 0 && Zint.compare a lo <= 0)
        && (Zint.is_zero gap || Zint.is_one gap)
        && Zint.is_zero gap = Zint.is_zero (Zint.rem a b));
    prop ~print:pz2 "gcd divides both, cofactors coprime" bz2 (fun (a, b) ->
        QCheck2.assume (not (Zint.is_zero a && Zint.is_zero b));
        let g = Zint.gcd a b in
        Zint.sign g > 0
        && Zint.is_zero (Zint.rem a g)
        && Zint.is_zero (Zint.rem b g)
        && Zint.is_one (Zint.gcd (Zint.div a g) (Zint.div b g))
        && Zint.equal g (Zint.gcd b a));
    prop ~print:pz "decimal round-trip and to_int_opt" boundary_z (fun a ->
        let s = Zint.to_string a in
        let in_native =
          Zint.compare (Zint.of_int min_int) a <= 0 && Zint.compare a (Zint.of_int max_int) <= 0
        in
        Zint.of_string s = a
        &&
        match Zint.to_int_opt a with
        | Some v -> in_native && string_of_int v = s && Zint.of_int v = a
        | None -> not in_native);
    prop ~print:pi2 "native oracle: add/sub/compare at the range edges" ei2 (fun (a, b) ->
        let za = Zint.of_int a and zb = Zint.of_int b in
        (add_overflows a b || Zint.to_int_opt (Zint.add za zb) = Some (a + b))
        && (add_overflows a (-b) || b = min_int || Zint.to_int_opt (Zint.sub za zb) = Some (a - b))
        && Zint.compare za zb = compare a b);
    prop ~print:QCheck2.Print.(triple int int int) "native oracle: mul when the product fits"
      (QCheck2.Gen.triple edge_int edge_int (QCheck2.Gen.int_range 0 63)) (fun (a, b, k) ->
        (* Shifting the factors by 63 bits in total keeps |a * b| <= 2^62,
           with products on both sides of the threshold. *)
        let a = a asr k and b = b asr (63 - k) in
        QCheck2.assume (not ((a = min_int && b = -1) || (b = min_int && a = -1)));
        Zint.to_int_opt (Zint.mul (Zint.of_int a) (Zint.of_int b)) = Some (a * b));
    prop ~print:pi2 "native oracle: div_rem/fdiv/cdiv at the range edges" ei2 (fun (a, b) ->
        QCheck2.assume (b <> 0 && not (a = min_int && b = -1));
        let za = Zint.of_int a and zb = Zint.of_int b in
        let q = a / b and r = a mod b in
        let fl = if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q in
        let cl = if r <> 0 && (r < 0) = (b < 0) then q + 1 else q in
        Zint.div_rem za zb = (Zint.of_int q, Zint.of_int r)
        && Zint.fdiv za zb = Zint.of_int fl
        && Zint.cdiv za zb = Zint.of_int cl);
    prop ~print:pi2 "native oracle: gcd at the range edges" ei2 (fun (a, b) ->
        QCheck2.assume (a <> min_int && b <> min_int);
        let rec g x y = if y = 0 then x else g y (x mod y) in
        Zint.gcd (Zint.of_int a) (Zint.of_int b) = Zint.of_int (g (abs a) (abs b))) ]

let properties =
  [ prop "add agrees with int" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        Zint.to_int (Zint.add (Zint.of_int a) (Zint.of_int b)) = a + b);
    prop "sub agrees with int" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        Zint.to_int (Zint.sub (Zint.of_int a) (Zint.of_int b)) = a - b);
    prop "mul agrees with int" (QCheck2.Gen.pair small_int small_int) (fun (a, b) ->
        Zint.to_int (Zint.mul (Zint.of_int a) (Zint.of_int b)) = a * b);
    prop "div_rem reconstructs" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        QCheck2.assume (b <> 0);
        let za = Zint.of_int a and zb = Zint.of_int b in
        let q, r = Zint.div_rem za zb in
        Zint.equal za (Zint.add (Zint.mul q zb) r)
        && Zint.compare (Zint.abs r) (Zint.abs zb) < 0);
    prop "fdiv lower bound" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        QCheck2.assume (b <> 0);
        let za = Zint.of_int a and zb = Zint.of_int b in
        let q = Zint.fdiv za zb in
        (* q*b <= a < (q+1)*b for b > 0; mirrored for b < 0 *)
        let lo = Zint.mul q zb and hi = Zint.mul (Zint.succ q) zb in
        if b > 0 then Zint.compare lo za <= 0 && Zint.compare za hi < 0
        else Zint.compare hi za < 0 || Zint.compare za lo <= 0);
    prop "string roundtrip" any_int (fun a ->
        Zint.equal (Zint.of_int a) (Zint.of_string (Zint.to_string (Zint.of_int a))));
    prop "compare agrees with int" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        compare a b = Zint.compare (Zint.of_int a) (Zint.of_int b));
    prop "gcd divides both" (QCheck2.Gen.pair small_int small_int) (fun (a, b) ->
        QCheck2.assume (a <> 0 || b <> 0);
        let g = Zint.gcd (Zint.of_int a) (Zint.of_int b) in
        Zint.is_zero (Zint.rem (Zint.of_int a) g)
        && Zint.is_zero (Zint.rem (Zint.of_int b) g));
    prop "mul big associativity" (QCheck2.Gen.triple any_int any_int any_int)
      (fun (a, b, c) ->
        let za = Zint.of_int a and zb = Zint.of_int b and zc = Zint.of_int c in
        Zint.equal (Zint.mul (Zint.mul za zb) zc) (Zint.mul za (Zint.mul zb zc)));
    prop "add_int/mul_int shortcuts" (QCheck2.Gen.pair any_int small_int) (fun (a, k) ->
        let za = Zint.of_int a in
        Zint.equal (Zint.add_int za k) (Zint.add za (Zint.of_int k))
        && Zint.equal (Zint.mul_int za k) (Zint.mul za (Zint.of_int k))) ]

let suite =
  [ Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "of_string" `Quick test_of_string;
    Alcotest.test_case "big values" `Quick test_big_values;
    Alcotest.test_case "min_int" `Quick test_min_int;
    Alcotest.test_case "division" `Quick test_division;
    Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "hash golden values" `Quick test_hash_golden;
    Alcotest.test_case "threshold crossing" `Quick test_threshold_crossing ]
  @ properties @ boundary_properties
