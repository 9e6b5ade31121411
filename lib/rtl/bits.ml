(* A vector is one [Bytes.t]: word 0 holds the width, and limb [i] is the
   native-endian 64-bit word at byte offset [8 * (i + 1)], read and written
   through the compiler's inlined load/store primitives.  An [int64 array]
   would hold a pointer to a boxed int64 per limb, so every store would
   allocate; a separate header record would cost a second block per
   vector.

   The kernels below ([*_into], [blit_changed], [equal], [compare],
   [to_bool], [to_index], [normalize]) must not allocate.  The rules that
   keep them so: int64 values live only in local variables and loops,
   never in a closure argument, a local recursive function or the result
   of a call the compiler cannot inline (a function containing a loop is
   never inlined).  Small [@inline] helpers without loops are fine. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let limb_bits = 64
let limbs_for width = (width + limb_bits - 1) / limb_bits

let[@inline] limb_offset i = (i + 1) lsl 3
let[@inline] width t = Int64.to_int (get64 t 0)
let[@inline] nlimbs t = (Bytes.length t lsr 3) - 1
let[@inline] limb t i = get64 t (limb_offset i)
let[@inline] set t i v = set64 t (limb_offset i) v

(* Unsigned [p < q]. *)
let[@inline] ult (p : int64) (q : int64) =
  Int64.sub p Int64.min_int < Int64.sub q Int64.min_int

(* Mask of the valid bits in the top limb. *)
let[@inline] top_mask width =
  let r = width land (limb_bits - 1) in
  if r = 0 then -1L else Int64.sub (Int64.shift_left 1L r) 1L

let normalize t =
  let top = nlimbs t - 1 in
  set t top (Int64.logand (limb t top) (top_mask (width t)));
  t

let create width =
  if width < 1 then invalid_arg "Bits: width must be >= 1";
  let t = Bytes.make ((limbs_for width + 1) lsl 3) '\000' in
  set64 t 0 (Int64.of_int width);
  t

let zero w = create w

let ones w =
  let t = create w in
  Bytes.fill t 8 (Bytes.length t - 8) '\255';
  normalize t

let of_int64 ~width n =
  let t = create width in
  set t 0 n;
  (* Sign-extend negative inputs across higher limbs. *)
  if Int64.compare n 0L < 0 then
    for i = 1 to nlimbs t - 1 do
      set t i (-1L)
    done;
  normalize t

let of_int ~width n = of_int64 ~width (Int64.of_int n)
let one w = of_int ~width:w 1
let of_bool b = of_int ~width:1 (if b then 1 else 0)

let set_bit t i =
  let l = i lsr 6 in
  set t l (Int64.logor (limb t l) (Int64.shift_left 1L (i land 63)))

let of_string s =
  let s = String.concat "" (String.split_on_char '_' s) in
  let w = String.length s in
  if w = 0 then invalid_arg "Bits.of_string: empty literal";
  let t = create w in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set_bit t (w - 1 - i)
      | _ -> invalid_arg "Bits.of_string: expected '0' or '1'")
    s;
  t

let random ~width =
  let t = create width in
  for i = 0 to nlimbs t - 1 do
    let v = Random.int64 Int64.max_int in
    set t i (if Random.bool () then Int64.logor v Int64.min_int else v)
  done;
  normalize t

let bit t i =
  if i < 0 || i >= width t then invalid_arg "Bits.bit: index out of range";
  Int64.logand (Int64.shift_right_logical (limb t (i lsr 6)) (i land 63)) 1L
  = 1L

let to_bool t =
  let n = Bytes.length t in
  let o = ref 8 in
  while !o < n && get64 t !o = 0L do
    o := !o + 8
  done;
  !o < n

let to_int64 t = limb t 0

(* The value as an int when it lies in [0, max] (with [max >= 0]); -1
   otherwise. *)
let int_upto t max =
  let n = Bytes.length t in
  let o = ref 16 in
  while !o < n && get64 t !o = 0L do
    o := !o + 8
  done;
  let v = limb t 0 in
  if !o < n || v < 0L || v > Int64.of_int max then -1 else Int64.to_int v

let to_index t ~bound = if bound <= 0 then -1 else int_upto t (bound - 1)

let to_int_opt t =
  let v = int_upto t max_int in
  if v < 0 then None else Some v

let to_int t =
  let v = int_upto t max_int in
  if v < 0 then invalid_arg "Bits.to_int: value too large" else v

let to_string t =
  let w = width t in
  String.init w (fun i -> if bit t (w - 1 - i) then '1' else '0')

let pp fmt t = Format.fprintf fmt "%d'b%s" (width t) (to_string t)

let msb t = bit t (width t - 1)
let lsb t = bit t 0

let check_same_width name a b =
  if width a <> width b then
    invalid_arg
      (Printf.sprintf "Bits.%s: width mismatch (%d vs %d)" name (width a)
         (width b))

let check_dst name dst w =
  if width dst <> w then
    invalid_arg
      (Printf.sprintf "Bits.%s: dst width %d, result width %d" name (width dst) w)

(* --- Kernels ---------------------------------------------------------------

   Each writes its result into [dst] (already of the result width) without
   checking widths; the public functions below check, then call one.  The
   element-wise kernels read limb [i] of every operand before writing limb
   [i] of [dst], so [dst] may alias an operand. *)

type bitop = And | Or | Xor

let k_bitop op ~dst a b =
  for i = 0 to nlimbs dst - 1 do
    let x = limb a i and y = limb b i in
    set dst i
      (match op with
      | And -> Int64.logand x y
      | Or -> Int64.logor x y
      | Xor -> Int64.logxor x y)
  done

let k_lognot ~dst a =
  for i = 0 to nlimbs dst - 1 do
    set dst i (Int64.lognot (limb a i))
  done;
  ignore (normalize dst)

(* a + (b or lognot b) + carry0, rippling the carry across limbs. *)
let k_add ~invert ~carry0 ~dst a b =
  let c = ref carry0 in
  for i = 0 to nlimbs dst - 1 do
    let x = limb a i in
    let y = if invert then Int64.lognot (limb b i) else limb b i in
    let s = Int64.add (Int64.add x y) (Int64.of_int !c) in
    (* Unsigned carry-out: s < x, or s = x with a carry in. *)
    c := if ult s x || (!c = 1 && s = x) then 1 else 0;
    set dst i s
  done;
  ignore (normalize dst)

(* 32-bit half [h] of the value. *)
let[@inline] half t h =
  let l = limb t (h lsr 1) in
  if h land 1 = 0 then Int64.logand l 0xFFFFFFFFL
  else Int64.shift_right_logical l 32

(* Truncating schoolbook multiply over 32-bit half-limbs.  Limbs are
   written from the top down and each recomputes the column sums below
   it, so limb [k] is written only after the last read of operand limbs
   [k..]: [dst] may alias an operand with no scratch buffer, at O(n^3)
   half-products for n limbs (multiplies are rare and narrow). *)
let k_mul ~dst a b =
  let n = nlimbs dst in
  if n = 1 then set dst 0 (Int64.mul (limb a 0) (limb b 0))
  else
    for k = n - 1 downto 0 do
      let carry = ref 0L and lo_half = ref 0L and hi_half = ref 0L in
      for c = 0 to (2 * k) + 1 do
        (* Column [c]: the sum of half-products, split so that nothing
           overflows 64 bits. *)
        let lo = ref 0L and hi = ref 0L in
        for i = 0 to c do
          let p = Int64.mul (half a i) (half b (c - i)) in
          lo := Int64.add !lo (Int64.logand p 0xFFFFFFFFL);
          hi := Int64.add !hi (Int64.shift_right_logical p 32)
        done;
        let s = Int64.add !lo !carry in
        if c = 2 * k then lo_half := Int64.logand s 0xFFFFFFFFL
        else if c = (2 * k) + 1 then hi_half := Int64.logand s 0xFFFFFFFFL;
        carry := Int64.add (Int64.shift_right_logical s 32) !hi
      done;
      set dst k (Int64.logor !lo_half (Int64.shift_left !hi_half 32))
    done;
  ignore (normalize dst)

(* Bits [low ..] of [src], as many as [dst] holds; [dst] must not alias
   [src]. *)
let k_select ~dst src ~low =
  let base = low lsr 6 and off = low land 63 in
  let srcn = nlimbs src in
  for i = 0 to nlimbs dst - 1 do
    let lo =
      if base + i < srcn then Int64.shift_right_logical (limb src (base + i)) off
      else 0L
    in
    let hi =
      if off = 0 || base + i + 1 >= srcn then 0L
      else Int64.shift_left (limb src (base + i + 1)) (limb_bits - off)
    in
    set dst i (Int64.logor lo hi)
  done;
  ignore (normalize dst)

(* OR a (normalized) vector into dst starting at bit [at]. *)
let or_blit_at dst ~at src =
  let base = at lsr 6 and off = at land 63 in
  let dn = nlimbs dst in
  for i = 0 to nlimbs src - 1 do
    let v = limb src i in
    if base + i < dn then
      set dst (base + i) (Int64.logor (limb dst (base + i)) (Int64.shift_left v off));
    if off > 0 && base + i + 1 < dn then
      set dst (base + i + 1)
        (Int64.logor
           (limb dst (base + i + 1))
           (Int64.shift_right_logical v (limb_bits - off)))
  done

let k_concat ~dst parts =
  for i = 0 to nlimbs dst - 1 do
    set dst i 0L
  done;
  let pos = ref (width dst) in
  for k = 0 to Array.length parts - 1 do
    let p = Array.unsafe_get parts k in
    pos := !pos - width p;
    or_blit_at dst ~at:!pos p
  done

(* --- Allocating operations ------------------------------------------------ *)

let bitop name op a b =
  check_same_width name a b;
  let t = create (width a) in
  k_bitop op ~dst:t a b;
  t

let logand a b = bitop "logand" And a b
let logor a b = bitop "logor" Or a b
let logxor a b = bitop "logxor" Xor a b

let lognot a =
  let t = create (width a) in
  k_lognot ~dst:t a;
  t

let add a b =
  check_same_width "add" a b;
  let t = create (width a) in
  k_add ~invert:false ~carry0:0 ~dst:t a b;
  t

let sub a b =
  check_same_width "sub" a b;
  let t = create (width a) in
  k_add ~invert:true ~carry0:1 ~dst:t a b;
  t

let neg a = sub (zero (width a)) a

let mul a b =
  check_same_width "mul" a b;
  let t = create (width a) in
  k_mul ~dst:t a b;
  t

let select t ~high ~low =
  if low < 0 || high >= width t || high < low then
    invalid_arg
      (Printf.sprintf "Bits.select: bad range [%d:%d] of width %d" high low
         (width t));
  let r = create (high - low + 1) in
  k_select ~dst:r t ~low;
  r

let concat_msb parts =
  if parts = [] then invalid_arg "Bits.concat_msb: empty list";
  let r = create (List.fold_left (fun acc p -> acc + width p) 0 parts) in
  k_concat ~dst:r (Array.of_list parts);
  r

let repeat t n =
  if n < 1 then invalid_arg "Bits.repeat: count must be >= 1";
  concat_msb (List.init n (fun _ -> t))

let uresize t w =
  let tw = width t in
  if w = tw then t
  else if w < tw then select t ~high:(w - 1) ~low:0
  else concat_msb [ zero (w - tw); t ]

let sresize t w =
  let tw = width t in
  if w = tw then t
  else if w < tw then select t ~high:(w - 1) ~low:0
  else
    let fill = if msb t then ones (w - tw) else zero (w - tw) in
    concat_msb [ fill; t ]

let sll t n =
  if n < 0 then invalid_arg "Bits.sll: negative shift";
  let w = width t in
  if n = 0 then t
  else if n >= w then zero w
  else concat_msb [ select t ~high:(w - 1 - n) ~low:0; zero n ]

let srl t n =
  if n < 0 then invalid_arg "Bits.srl: negative shift";
  let w = width t in
  if n = 0 then t
  else if n >= w then zero w
  else concat_msb [ zero n; select t ~high:(w - 1) ~low:n ]

let sra t n =
  if n < 0 then invalid_arg "Bits.sra: negative shift";
  let w = width t in
  if n = 0 then t
  else
    let fill_w = min n w in
    let fill = if msb t then ones fill_w else zero fill_w in
    if n >= w then fill
    else concat_msb [ fill; select t ~high:(w - 1) ~low:n ]

(* Word 0 is the width, so one sweep compares widths and values. *)
let equal a b =
  let n = Bytes.length a in
  n = Bytes.length b
  &&
  let o = ref 0 in
  while !o < n && get64 a !o = get64 b !o do
    o := !o + 8
  done;
  !o >= n

let compare a b =
  check_same_width "compare" a b;
  let i = ref (nlimbs a - 1) in
  while !i >= 0 && limb a !i = limb b !i do
    decr i
  done;
  if !i < 0 then 0 else if ult (limb a !i) (limb b !i) then -1 else 1

let eq a b = of_bool (equal a b)
let lt a b = of_bool (compare a b < 0)

(* --- Destination-buffer (in-place) variants ----------------------------- *)

let copy = Bytes.copy

let blit ~src ~dst =
  if width src <> width dst then
    invalid_arg
      (Printf.sprintf "Bits.blit: width mismatch (%d vs %d)" (width src)
         (width dst));
  Bytes.unsafe_blit src 8 dst 8 (Bytes.length src - 8)

(* Compare-and-copy in one pass: returns [true] (after copying) iff
   [dst] differed from [src]. The simulator's publish step runs this on
   every evaluated node, so it avoids the separate [equal] + [blit]
   traversals. *)
let blit_changed ~src ~dst =
  if width src <> width dst then
    invalid_arg
      (Printf.sprintf "Bits.blit_changed: width mismatch (%d vs %d)"
         (width src) (width dst));
  let changed = ref false in
  let o = ref 8 in
  while !o < Bytes.length src do
    let v = get64 src !o in
    if v <> get64 dst !o then begin
      set64 dst !o v;
      changed := true
    end;
    o := !o + 8
  done;
  !changed

let check_op_into name ~dst a b =
  check_same_width name a b;
  check_dst name dst (width a)

let add_into ~dst a b =
  check_op_into "add_into" ~dst a b;
  k_add ~invert:false ~carry0:0 ~dst a b

(* a - b as a + lognot b + 1. *)
let sub_into ~dst a b =
  check_op_into "sub_into" ~dst a b;
  k_add ~invert:true ~carry0:1 ~dst a b

let mul_into ~dst a b =
  check_op_into "mul_into" ~dst a b;
  k_mul ~dst a b

let logand_into ~dst a b =
  check_op_into "logand_into" ~dst a b;
  k_bitop And ~dst a b

let logor_into ~dst a b =
  check_op_into "logor_into" ~dst a b;
  k_bitop Or ~dst a b

let logxor_into ~dst a b =
  check_op_into "logxor_into" ~dst a b;
  k_bitop Xor ~dst a b

let lognot_into ~dst a =
  check_dst "lognot_into" dst (width a);
  k_lognot ~dst a

let eq_into ~dst a b =
  check_same_width "eq_into" a b;
  check_dst "eq_into" dst 1;
  set dst 0 (if equal a b then 1L else 0L)

let lt_into ~dst a b =
  check_same_width "lt_into" a b;
  check_dst "lt_into" dst 1;
  set dst 0 (if compare a b < 0 then 1L else 0L)

let select_into ~dst src ~high ~low =
  if low < 0 || high >= width src || high < low then
    invalid_arg
      (Printf.sprintf "Bits.select_into: bad range [%d:%d] of width %d" high low
         (width src));
  check_dst "select_into" dst (high - low + 1);
  k_select ~dst src ~low

let concat_msb_into ~dst parts =
  let total = ref 0 in
  for k = 0 to Array.length parts - 1 do
    total := !total + width parts.(k)
  done;
  check_dst "concat_msb_into" dst !total;
  k_concat ~dst parts

(* --- Limb (bit-plane) access -------------------------------------------- *)

(* The batched simulator treats a width-W signal over 64 lanes as a
   width-(W*64) vector whose limb [b] is the bit-plane of bit [b] across
   all lanes; it reads and writes those limbs through [unsafe_data]. *)

let limb_count t = nlimbs t

let check_limb t i =
  if i < 0 || i >= nlimbs t then invalid_arg "index out of bounds"

let get_limb t i =
  check_limb t i;
  limb t i

let set_limb t i v =
  check_limb t i;
  set t i (if i = nlimbs t - 1 then Int64.logand v (top_mask (width t)) else v)

let unsafe_data t = t

let reduce_or t = of_bool (to_bool t)
let reduce_and t = of_bool (equal t (ones (width t)))

let popcount t =
  let count = ref 0 in
  for i = 0 to width t - 1 do
    if bit t i then incr count
  done;
  !count

let to_signed_int t =
  if msb t then -(to_int (neg t)) else to_int t
