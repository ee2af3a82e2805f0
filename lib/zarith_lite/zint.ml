(* Integers held natively while they fit, as base-2^15 limbs beyond.

   A value [v] with [|v| <= small_max = 2^61 - 1] is [S v]; anything
   larger is [B] in sign-magnitude form. The representation is
   canonical: a value is [S] exactly when it fits the small range, so
   structural equality coincides with numeric equality. The range is
   symmetric and one bit short of the native one, so [neg] of an [S]
   and the sum or difference of two [S] never overflow a native int.

   Limb magnitudes are little-endian arrays in base 2^15. The base is
   small enough that a limb product (30 bits) plus carries never
   approaches the native-int range, so schoolbook multiplication needs
   no special carry handling. Invariants of [B]: [sign] is -1 or 1; the
   top limb of [mag] is non-zero; the magnitude exceeds [small_max].
   Operations on two [S] operands run on native ints; every other case
   converts to limbs, runs the magnitude routines and normalises the
   result back to [S] when it fits. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

type t =
  | S of int
  | B of { sign : int; mag : int array }

let small_max = max_int lsr 1
let zero = S 0

(* ---- magnitude helpers -------------------------------------------------- *)

let mag_is_zero m = Array.length m = 0

let trim m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

(* Limbs of [v] read as an unsigned number, so [min_int] (whose
   negation overflows back to itself) yields the magnitude 2^62. *)
let mag_of_abs_int v =
  let rec len n v = if v = 0 then n else len (n + 1) (v lsr base_bits) in
  let m = Array.make (len 0 v) 0 in
  let v = ref v in
  for i = 0 to Array.length m - 1 do
    m.(i) <- !v land base_mask;
    v := !v lsr base_bits
  done;
  m

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  trim r

(* Requires [cmp_mag a b >= 0]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  trim r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    trim r
  end

let mul_mag_small m d =
  (* [0 <= d < base] *)
  if d = 0 || mag_is_zero m then [||]
  else begin
    let l = Array.length m in
    let r = Array.make (l + 1) 0 in
    let carry = ref 0 in
    for i = 0 to l - 1 do
      let s = (m.(i) * d) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(l) <- !carry;
    trim r
  end

(* Shift left by [k] whole limbs. *)
let shl_limbs m k =
  if mag_is_zero m then [||]
  else begin
    let l = Array.length m in
    let r = Array.make (l + k) 0 in
    Array.blit m 0 r k l;
    r
  end

(* Long division of magnitudes: returns (quotient, remainder).
   Quotient digits are found by binary search, which keeps the code
   simple and obviously correct; operand sizes in this project are
   small (solver coefficients), so the extra log(base) factor is
   irrelevant. *)
let divmod_mag a b =
  if mag_is_zero b then raise Division_by_zero;
  if cmp_mag a b < 0 then ([||], a)
  else begin
    let la = Array.length a and lb = Array.length b in
    let qlen = la - lb + 1 in
    let q = Array.make qlen 0 in
    let rem = ref a in
    for pos = qlen - 1 downto 0 do
      let shifted = shl_limbs b pos in
      (* Largest digit d with d * shifted <= rem. *)
      let lo = ref 0 and hi = ref (base - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if cmp_mag (mul_mag_small shifted mid) !rem <= 0 then lo := mid else hi := mid - 1
      done;
      q.(pos) <- !lo;
      if !lo > 0 then rem := sub_mag !rem (mul_mag_small shifted !lo)
    done;
    (trim q, !rem)
  end

(* ---- signed interface ---------------------------------------------------- *)

let of_int v =
  if v >= -small_max && v <= small_max then S v
  else if v > 0 then B { sign = 1; mag = mag_of_abs_int v }
  else B { sign = -1; mag = mag_of_abs_int (-v) }

(* Canonical value of a sign and a trimmed magnitude. Up to four limbs
   is at most 60 bits; a fifth limb of 0 or 1 keeps it within 61. *)
let make sign mag =
  let l = Array.length mag in
  if l = 0 then zero
  else if l < 5 || (l = 5 && mag.(4) <= 1) then begin
    let v = ref 0 in
    for i = l - 1 downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    S (if sign < 0 then - !v else !v)
  end
  else B { sign; mag }

(* Sign and magnitude of any value, for the limb routines. *)
let limbs = function
  | S v -> (Int.compare v 0, mag_of_abs_int (Stdlib.abs v))
  | B { sign; mag } -> (sign, mag)

let one = S 1
let two = S 2
let minus_one = S (-1)

let sign = function
  | S v -> Int.compare v 0
  | B { sign; _ } -> sign

let is_zero = function
  | S 0 -> true
  | _ -> false

let is_one = function
  | S 1 -> true
  | _ -> false

let neg = function
  | S v -> S (-v)
  | B { sign; mag } -> B { sign = -sign; mag }

let abs = function
  | S v -> S (Stdlib.abs v)
  | B { mag; _ } -> B { sign = 1; mag }

(* Every [B] lies beyond every [S], on the side of its sign. *)
let compare a b =
  match (a, b) with
  | S x, S y -> Int.compare x y
  | S _, B { sign; _ } -> -sign
  | B { sign; _ }, S _ -> sign
  | B a, B b ->
    if a.sign <> b.sign then Int.compare a.sign b.sign
    else if a.sign > 0 then cmp_mag a.mag b.mag
    else cmp_mag b.mag a.mag

let equal a b =
  match (a, b) with
  | S x, S y -> x = y
  | B a, B b -> a.sign = b.sign && cmp_mag a.mag b.mag = 0
  | S _, B _ | B _, S _ -> false

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Folds the base-2^15 limbs, low limb first, seeded with the sign.
   For [S] the limbs are peeled off natively, giving the same value the
   limb array would. *)
let hash = function
  | S v ->
    let rec fold acc m =
      if m = 0 then acc else fold ((acc * 31) + (m land base_mask)) (m lsr base_bits)
    in
    fold (Int.compare v 0 + 7) (Stdlib.abs v)
  | B { sign; mag } -> Array.fold_left (fun acc d -> (acc * 31) + d) (sign + 7) mag

let add a b =
  match (a, b) with
  | S x, S y -> of_int (x + y)
  | _ ->
    let sa, ma = limbs a and sb, mb = limbs b in
    if sa = 0 then b
    else if sb = 0 then a
    else if sa = sb then make sa (add_mag ma mb)
    else begin
      let c = cmp_mag ma mb in
      if c = 0 then zero
      else if c > 0 then make sa (sub_mag ma mb)
      else make sb (sub_mag mb ma)
    end

let sub a b =
  match (a, b) with
  | S x, S y -> of_int (x - y)
  | _ -> add a (neg b)

let succ a = add a one
let pred a = sub a one

(* Two [S] factors multiply natively when the product provably stays
   small: both below 2^30, or failing that an exact division bound. *)
let mul a b =
  match (a, b) with
  | S x, S y
    when let ux = Stdlib.abs x and uy = Stdlib.abs y in
      ux lor uy < 1 lsl 30 || ux = 0 || uy <= small_max / ux ->
    S (x * y)
  | _ ->
    let sa, ma = limbs a and sb, mb = limbs b in
    if sa = 0 || sb = 0 then zero else make (sa * sb) (mul_mag ma mb)

let div_rem a b =
  match (a, b) with
  | _, S 0 -> raise Division_by_zero
  | S x, S y -> (S (x / y), S (x mod y))
  | _ ->
    let sa, ma = limbs a and sb, mb = limbs b in
    let qm, rm = divmod_mag ma mb in
    (make (sa * sb) qm, make sa rm)

let div a b =
  match (a, b) with
  | S x, S y when y <> 0 -> S (x / y)
  | _ -> fst (div_rem a b)

let rem a b =
  match (a, b) with
  | S x, S y when y <> 0 -> S (x mod y)
  | _ -> snd (div_rem a b)

(* On two [S] operands a non-zero remainder means [|y| >= 2], so the
   adjusted quotient stays within the small range. *)
let fdiv a b =
  match (a, b) with
  | S x, S y when y <> 0 ->
    let q = x / y and r = x mod y in
    S (if r <> 0 && r lxor y < 0 then q - 1 else q)
  | _ ->
    let q, r = div_rem a b in
    if is_zero r || sign r = sign b then q else pred q

let cdiv a b =
  match (a, b) with
  | S x, S y when y <> 0 ->
    let q = x / y and r = x mod y in
    S (if r <> 0 && r lxor y >= 0 then q + 1 else q)
  | _ ->
    let q, r = div_rem a b in
    if is_zero r || sign r <> sign b then q else succ q

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let rec gcd a b =
  match (a, b) with
  | S x, S y -> S (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ -> if is_zero b then abs a else gcd b (rem a b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (mul (div a (gcd a b)) b)

let mul_int a k = mul a (of_int k)
let add_int a k = add a (of_int k)

let pow b n =
  if n < 0 then invalid_arg "Zint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one b n

let int_lo = of_int Stdlib.min_int
let int_hi = of_int Stdlib.max_int

let fits_int = function
  | S _ -> true
  | B _ as z -> compare int_lo z <= 0 && compare z int_hi <= 0

let to_int_opt = function
  | S v -> Some v
  | B { sign; mag } as z ->
    if not (fits_int z) then None
    else begin
      (* 2^62 wraps to [min_int], whose negation is itself. *)
      let v = Array.fold_right (fun d acc -> (acc lsl base_bits) lor d) mag 0 in
      Some (if sign < 0 then -v else v)
    end

let to_int z =
  match to_int_opt z with
  | Some v -> v
  | None -> failwith "Zint.to_int: overflow"

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Zint.of_string: empty string";
  let neg_sign, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= n then invalid_arg "Zint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Zint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if neg_sign then neg !acc else !acc

let to_string = function
  | S v -> string_of_int v
  | B { sign = z_sign; _ } as z ->
    let chunk = of_int 10000 in
    let buf = Buffer.create 16 in
    let rec go m acc =
      if is_zero m then acc
      else begin
        let q, r = div_rem m chunk in
        go q (to_int r :: acc)
      end
    in
    let chunks = go (abs z) [] in
    if z_sign < 0 then Buffer.add_char buf '-';
    (match chunks with
     | [] -> assert false
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf

let pp fmt z = Format.pp_print_string fmt (to_string z)
