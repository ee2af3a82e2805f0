type t = int

let width = 32
let modulus = 1 lsl width (* 2^32 fits comfortably in a 63-bit int *)
let max_value = (1 lsl (width - 1)) - 1
let min_value = -(1 lsl (width - 1))

let norm v =
  let m = v land (modulus - 1) in
  if m > max_value then m - modulus else m

let add a b = norm (a + b)
let sub a b = norm (a - b)

let mul a b =
  (* Products of two 32-bit values need 64 bits; native ints only hold
     63, so go through Int64 for the wraparound. *)
  norm (Int64.to_int (Int64.logand (Int64.mul (Int64.of_int a) (Int64.of_int b)) 0xFFFFFFFFL))

let neg a = norm (-a)

let div a b = if b = 0 then raise Division_by_zero else norm (a / b)
let rem a b = if b = 0 then raise Division_by_zero else norm (a mod b)

let to_unsigned a = a land (modulus - 1)

let logand a b = norm (to_unsigned a land to_unsigned b)
let logor a b = norm (to_unsigned a lor to_unsigned b)
let logxor a b = norm (to_unsigned a lxor to_unsigned b)
let lognot a = norm (lnot (to_unsigned a))
let shift_left a k = norm (to_unsigned a lsl (k land 31))

let shift_right a k =
  (* Arithmetic shift on the signed value. *)
  norm (a asr (k land 31))

let of_bool b = if b then 1 else 0
let to_bool v = v <> 0

let to_zint = Zarith_lite.Zint.of_int

(* [norm] already truncates any native int (two's complement makes the
   low 32 bits the residue mod 2^32), so only values beyond the native
   range take the bignum remainder. *)
let of_zint_trunc z =
  let open Zarith_lite in
  match Zint.to_int_opt z with
  | Some v -> norm v
  | None ->
    let m = Zint.of_int modulus in
    let r = Zint.rem z m in
    (* [Zint.rem] truncates toward zero; fold into [0, 2^32) first. *)
    let r = if Zint.sign r < 0 then Zint.add r m else r in
    norm (Zint.to_int r)
