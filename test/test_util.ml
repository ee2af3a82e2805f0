(* PRNG determinism/ranges, 32-bit word semantics, CRC-32 and the
   persisted-format escapers. *)

open Dart_util

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done;
  let c = Prng.create 124 in
  Alcotest.(check bool) "different seed differs" true
    (Prng.next_int64 (Prng.create 123) <> Prng.next_int64 c)

let test_prng_ranges () =
  let rng = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int_range rng 0 255 in
    if v < 0 || v > 255 then Alcotest.failf "int_range out of range: %d" v;
    let w = Prng.int_below rng 3 in
    if w < 0 || w > 2 then Alcotest.failf "int_below out of range: %d" w;
    let b = Prng.bits32 rng in
    if b < Word32.min_value || b > Word32.max_value then
      Alcotest.failf "bits32 out of range: %d" b
  done

let test_prng_coverage () =
  (* All values of a small range should appear. *)
  let rng = Prng.create 99 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Prng.int_below rng 10) <- true
  done;
  Array.iteri (fun i b -> if not b then Alcotest.failf "value %d never drawn" i) seen

let test_prng_split () =
  let rng = Prng.create 5 in
  let s1 = Prng.split rng in
  let s2 = Prng.split rng in
  Alcotest.(check bool) "split streams differ" true
    (Prng.next_int64 s1 <> Prng.next_int64 s2)

let test_prng_choose () =
  let rng = Prng.create 1 in
  Alcotest.(check int) "singleton" 42 (Prng.choose rng [ 42 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (Prng.choose rng []))

let test_word32_wrap () =
  Alcotest.(check int) "max+1 wraps" Word32.min_value (Word32.add Word32.max_value 1);
  Alcotest.(check int) "min-1 wraps" Word32.max_value (Word32.sub Word32.min_value 1);
  Alcotest.(check int) "mul wraps" 0 (Word32.mul 65536 65536);
  Alcotest.(check int) "mul wraps signed" (-2147483648) (Word32.mul 65536 32768);
  Alcotest.(check int) "neg min wraps" Word32.min_value (Word32.neg Word32.min_value)

let test_word32_div () =
  Alcotest.(check int) "trunc toward zero" (-3) (Word32.div (-7) 2);
  Alcotest.(check int) "rem sign" (-1) (Word32.rem (-7) 2);
  Alcotest.check_raises "div zero" Division_by_zero (fun () -> ignore (Word32.div 1 0))

let test_word32_bits () =
  Alcotest.(check int) "and" 0b1000 (Word32.logand 0b1100 0b1010);
  Alcotest.(check int) "or" 0b1110 (Word32.logor 0b1100 0b1010);
  Alcotest.(check int) "xor" 0b0110 (Word32.logxor 0b1100 0b1010);
  Alcotest.(check int) "not 0" (-1) (Word32.lognot 0);
  Alcotest.(check int) "shl" 20 (Word32.shift_left 5 2);
  Alcotest.(check int) "shl wraps" Word32.min_value (Word32.shift_left 1 31);
  Alcotest.(check int) "shr arithmetic" (-1) (Word32.shift_right (-2) 1);
  Alcotest.(check int) "shift masked" 2 (Word32.shift_left 1 33)

(* Shift counts are masked to their low five bits ([k land 31], as on
   x86): the machine's expression compiler folds constant shifts, so
   these lock the masking semantics it must reproduce. *)
let test_word32_shift_edges () =
  Alcotest.(check int) "shl by 32 is shl by 0" 5 (Word32.shift_left 5 32);
  Alcotest.(check int) "shl by 33 is shl by 1" 10 (Word32.shift_left 5 33);
  Alcotest.(check int) "shl by 63 is shl by 31" Word32.min_value (Word32.shift_left 1 63);
  Alcotest.(check int) "shl by -1 is shl by 31" Word32.min_value (Word32.shift_left 1 (-1));
  Alcotest.(check int) "shr by 32 is shr by 0" (-7) (Word32.shift_right (-7) 32);
  Alcotest.(check int) "shr by 36 is shr by 4" 1 (Word32.shift_right 16 36);
  Alcotest.(check int) "shr by -28 is shr by 4" (-1) (Word32.shift_right (-16) (-28));
  Alcotest.(check int) "shr keeps sign at 31" (-1) (Word32.shift_right Word32.min_value 31)

let test_word32_zint () =
  let open Zarith_lite in
  Alcotest.(check int) "roundtrip" 12345 (Word32.of_zint_trunc (Word32.to_zint 12345));
  Alcotest.(check int) "2^32 + 5 truncates" 5
    (Word32.of_zint_trunc (Zint.add (Zint.pow Zint.two 32) (Zint.of_int 5)));
  Alcotest.(check int) "2^31 wraps negative" Word32.min_value
    (Word32.of_zint_trunc (Zint.pow Zint.two 31));
  Alcotest.(check int) "negative" (-5) (Word32.of_zint_trunc (Zint.of_int (-5)));
  Alcotest.(check int) "-2^31 - 1 wraps positive" Word32.max_value
    (Word32.of_zint_trunc (Zint.of_int (Word32.min_value - 1)));
  (* Native ints at the edges of the native range and bignums beyond it
     must truncate to the same residue mod 2^32. *)
  Alcotest.(check int) "max_int" (-1) (Word32.of_zint_trunc (Zint.of_int max_int));
  Alcotest.(check int) "min_int" 0 (Word32.of_zint_trunc (Zint.of_int min_int));
  Alcotest.(check int) "2^62 + 7" 7
    (Word32.of_zint_trunc (Zint.add (Zint.pow Zint.two 62) (Zint.of_int 7)));
  Alcotest.(check int) "-(2^62) - 7" (-7)
    (Word32.of_zint_trunc (Zint.neg (Zint.add (Zint.pow Zint.two 62) (Zint.of_int 7))));
  Alcotest.(check int) "2^100 + 2^31" Word32.min_value
    (Word32.of_zint_trunc (Zint.add (Zint.pow Zint.two 100) (Zint.pow Zint.two 31)));
  Alcotest.(check int) "-(2^70) - 3" (-3)
    (Word32.of_zint_trunc (Zint.sub (Zint.neg (Zint.pow Zint.two 70)) (Zint.of_int 3)))

(* The standard IEEE 802.3 check value plus the incremental-update law
   the checkpoint codec relies on (one checksum per record block). *)
let test_crc32_vectors () =
  Alcotest.(check string) "check value" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty string" "00000000" (Crc32.to_hex (Crc32.string ""));
  Alcotest.(check bool) "update composes" true
    (Crc32.update (Crc32.string "1234") "56789" = Crc32.string "123456789");
  Alcotest.(check bool) "one-byte sensitivity" true
    (Crc32.string "target f 0 1" <> Crc32.string "target f 0 2")

let test_crc32_hex () =
  Alcotest.(check bool) "hex roundtrip" true
    (Crc32.of_hex (Crc32.to_hex (Crc32.string "abc")) = Some (Crc32.string "abc"));
  Alcotest.(check int) "fixed width" 8 (String.length (Crc32.to_hex 0l));
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" bad) true
        (Crc32.of_hex bad = None))
    [ ""; "cbf4392"; "cbf439260"; "cbf4392g"; " bf43926" ]

let test_persist_bad_escapes () =
  List.iter
    (fun bad ->
      match Persist.Lines.unesc bad with
      | exception Persist.Bad _ -> ()
      | s -> Alcotest.failf "%S accepted as %S" bad s)
    [ "%"; "%4"; "a%4"; "%zz"; "%4g"; "%_1"; "%+1"; "%-1"; "x%0" ]

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let word_gen = QCheck2.Gen.int_range Word32.min_value Word32.max_value

(* Arbitrary bytes, weighted towards the ones the escapers rewrite. *)
let bytes_gen =
  QCheck2.Gen.(
    let special = oneofl [ ' '; '%'; '\n'; '\t'; '\r'; '"'; '\\'; '\x00'; '\x7f'; '\xff' ] in
    string_size ~gen:(frequency [ (3, char); (2, special) ]) (int_bound 24))

let properties =
  [ prop "norm idempotent" QCheck2.Gen.int (fun v -> Word32.norm (Word32.norm v) = Word32.norm v);
    prop "add in range" (QCheck2.Gen.pair word_gen word_gen) (fun (a, b) ->
        let r = Word32.add a b in
        r >= Word32.min_value && r <= Word32.max_value);
    prop "mul matches Int32" (QCheck2.Gen.pair word_gen word_gen) (fun (a, b) ->
        Word32.mul a b = Int32.to_int (Int32.mul (Int32.of_int a) (Int32.of_int b)));
    prop "add matches Int32" (QCheck2.Gen.pair word_gen word_gen) (fun (a, b) ->
        Word32.add a b = Int32.to_int (Int32.add (Int32.of_int a) (Int32.of_int b)));
    (* Shifting by a multiple of 2^32 leaves the residue alone, whether
       the shifted value stays native or needs limbs. *)
    prop "of_zint_trunc ignores multiples of 2^32"
      (QCheck2.Gen.pair QCheck2.Gen.int (QCheck2.Gen.int_range (-2000) 2000))
      (fun (v, k) ->
        let open Zarith_lite in
        let shift = Zint.mul (Zint.of_int k) (Zint.pow Zint.two 40) in
        Word32.of_zint_trunc (Zint.add (Zint.of_int v) shift) = Word32.norm v);
    prop "persist %-escape roundtrip, separator-free" bytes_gen (fun s ->
        let e = Persist.Lines.esc s in
        Persist.Lines.unesc e = s
        && not (String.exists (fun c -> String.contains " \n\t\r" c) e));
    prop "persist flat JSON roundtrip" bytes_gen (fun s ->
        let fields =
          [ (s, Persist.Json.Str s); ("n", Persist.Json.Int (Int64.of_int (String.length s))) ]
        in
        Persist.Json.parse_flat (Persist.Json.flat_object fields) = fields) ]

let suite =
  [ Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "prng coverage" `Quick test_prng_coverage;
    Alcotest.test_case "prng split" `Quick test_prng_split;
    Alcotest.test_case "prng choose" `Quick test_prng_choose;
    Alcotest.test_case "word32 wraparound" `Quick test_word32_wrap;
    Alcotest.test_case "word32 division" `Quick test_word32_div;
    Alcotest.test_case "word32 bit ops" `Quick test_word32_bits;
    Alcotest.test_case "word32 shift edge cases" `Quick test_word32_shift_edges;
    Alcotest.test_case "word32 zint bridge" `Quick test_word32_zint;
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 hex codec" `Quick test_crc32_hex;
    Alcotest.test_case "persist rejects malformed %-escapes" `Quick test_persist_bad_escapes ]
  @ properties
