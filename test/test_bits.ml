open Hwpat_rtl

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* Generator for (width, value) pairs with the value within range. *)
let arb_sized_value =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 130 >>= fun width ->
      let max_v = if width >= 62 then max_int else (1 lsl width) - 1 in
      map (fun v -> (width, v)) (int_bound max_v))
  in
  make ~print:(fun (w, v) -> Printf.sprintf "width=%d value=%d" w v) gen

let arb_pair_same_width =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 61 >>= fun width ->
      let bound = (1 lsl width) - 1 in
      map2 (fun a b -> (width, a, b)) (int_bound bound) (int_bound bound))
  in
  make ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b) gen

let test_construct () =
  check_int "width of zero" 8 (Bits.width (Bits.zero 8));
  check_string "zero" "00000000" (Bits.to_string (Bits.zero 8));
  check_string "ones" "11111111" (Bits.to_string (Bits.ones 8));
  check_string "one" "00000001" (Bits.to_string (Bits.one 8));
  check_int "of_int round trip" 42 (Bits.to_int (Bits.of_int ~width:8 42));
  check_int "of_int truncates" 1 (Bits.to_int (Bits.of_int ~width:2 5));
  check_int "negative wraps" 255 (Bits.to_int (Bits.of_int ~width:8 (-1)));
  check_string "of_string" "1010" (Bits.to_string (Bits.of_string "1010"));
  check_string "of_string underscores" "10100101"
    (Bits.to_string (Bits.of_string "1010_0101"));
  Alcotest.check_raises "empty literal" (Invalid_argument "Bits.of_string: empty literal")
    (fun () -> ignore (Bits.of_string ""));
  check_bool "of_bool true" true (Bits.to_bool (Bits.of_bool true));
  check_bool "of_bool false" false (Bits.to_bool (Bits.of_bool false))

(* Regression: conversions that cannot fit an OCaml int must raise
   (or return None), never silently truncate. *)
let test_to_int_overflow () =
  let wide_one = Bits.concat_msb [ Bits.zero 80; Bits.one 20 ] in
  check_int "wide value that fits converts" 1 (Bits.to_int wide_one);
  Alcotest.(check (option int)) "to_int_opt on fitting value" (Some 1)
    (Bits.to_int_opt wide_one);
  let too_wide = Bits.ones 100 in
  Alcotest.check_raises "to_int raises on overflow"
    (Invalid_argument "Bits.to_int: value too large") (fun () ->
      ignore (Bits.to_int too_wide));
  Alcotest.(check (option int)) "to_int_opt on overflow" None
    (Bits.to_int_opt too_wide);
  (* 63 bits of ones exceeds max_int (62 significant bits). *)
  Alcotest.check_raises "63-bit ones raises"
    (Invalid_argument "Bits.to_int: value too large") (fun () ->
      ignore (Bits.to_int (Bits.ones 63)));
  (* The largest representable value still converts. *)
  check_int "max_int round trips" max_int
    (Bits.to_int (Bits.of_int ~width:62 max_int))

let test_wide () =
  let w = 100 in
  let a = Bits.concat_msb [ Bits.ones 50; Bits.zero 50 ] in
  check_int "wide width" w (Bits.width a);
  check_bool "wide msb" true (Bits.msb a);
  check_bool "wide lsb" false (Bits.lsb a);
  check_string "wide select hi" (String.make 25 '1')
    (Bits.to_string (Bits.select a ~high:99 ~low:75));
  check_string "wide select straddle" ("1" ^ String.make 24 '0')
    (Bits.to_string (Bits.select a ~high:50 ~low:26));
  let incremented = Bits.add a (Bits.one w) in
  check_bool "wide add changes" false (Bits.equal a incremented);
  check_bool "wide add low bit" true (Bits.lsb incremented)

let test_arith_edges () =
  let full = Bits.ones 8 in
  check_int "ones + 1 wraps" 0 (Bits.to_int (Bits.add full (Bits.one 8)));
  check_int "0 - 1 wraps" 255 (Bits.to_int (Bits.sub (Bits.zero 8) (Bits.one 8)));
  check_int "neg 1" 255 (Bits.to_int (Bits.neg (Bits.one 8)));
  check_int "neg 0" 0 (Bits.to_int (Bits.neg (Bits.zero 8)));
  check_int "mul truncates" ((200 * 200) land 255)
    (Bits.to_int (Bits.mul (Bits.of_int ~width:8 200) (Bits.of_int ~width:8 200)));
  (* 64-bit boundary: carries across the limb. *)
  let a64 = Bits.ones 64 in
  let b = Bits.uresize a64 65 in
  check_bool "65-bit add carry" true (Bits.bit (Bits.add b b) 64)

let test_signed () =
  check_int "to_signed positive" 5 (Bits.to_signed_int (Bits.of_int ~width:8 5));
  check_int "to_signed negative" (-1) (Bits.to_signed_int (Bits.ones 8));
  check_int "to_signed min" (-128) (Bits.to_signed_int (Bits.of_int ~width:8 128));
  check_string "sresize extends sign" "1111_1110"
    (Bits.to_string (Bits.sresize (Bits.of_int ~width:4 14) 8)
    |> fun s -> String.sub s 0 4 ^ "_" ^ String.sub s 4 4);
  check_string "uresize zero fills" "00001110"
    (Bits.to_string (Bits.uresize (Bits.of_int ~width:4 14) 8))

let test_shift () =
  let v = Bits.of_int ~width:8 0b1001_0110 in
  check_int "sll" 0b0101_1000 (Bits.to_int (Bits.sll v 2));
  check_int "srl" 0b0010_0101 (Bits.to_int (Bits.srl v 2));
  check_int "sra sign" 0b1110_0101 (Bits.to_int (Bits.sra v 2));
  check_int "sll full" 0 (Bits.to_int (Bits.sll v 8));
  check_int "srl full" 0 (Bits.to_int (Bits.srl v 8));
  check_int "sra full" 255 (Bits.to_int (Bits.sra v 8));
  check_int "shift by zero" (Bits.to_int v) (Bits.to_int (Bits.sll v 0))

(* Shift amounts at and past the width saturate — [sll]/[srl] to all
   zeros, [sra] to all sign bits — on single- and multi-limb vectors
   alike, and negative amounts raise. The simulation engines and HDL
   back-ends share these semantics (test_backends.ml pins them to the
   generated VHDL/Verilog). *)
let test_shift_saturation () =
  List.iter
    (fun w ->
      let neg = Bits.ones w in
      let pos = if w = 1 then Bits.zero 1 else Bits.srl (Bits.ones w) 1 in
      List.iter
        (fun n ->
          let name op = Printf.sprintf "%s w=%d n=%d" op w n in
          check_bool (name "sll zeros") true
            (Bits.equal (Bits.sll neg n) (Bits.zero w));
          check_bool (name "srl zeros") true
            (Bits.equal (Bits.srl neg n) (Bits.zero w));
          check_bool (name "sra sign fills") true
            (Bits.equal (Bits.sra neg n) (Bits.ones w));
          check_bool (name "sra zero fills") true
            (Bits.equal (Bits.sra pos n) (Bits.zero w)))
        [ w; w + 1; 2 * w; 1000 ])
    [ 1; 8; 63; 64; 65; 100; 128 ];
  List.iter
    (fun (op_name, op) ->
      Alcotest.check_raises
        (op_name ^ " negative shift")
        (Invalid_argument ("Bits." ^ op_name ^ ": negative shift"))
        (fun () -> ignore (op (Bits.ones 8) (-1))))
    [ ("sll", Bits.sll); ("srl", Bits.srl); ("sra", Bits.sra) ]

(* Truncating multiply past the 64-bit limb boundary, against a
   bit-serial shift-and-add reference. The schoolbook kernel works in
   32-bit half-limbs; these widths make the cross-limb partial
   products and carry chains actually fire. *)
let test_wide_mul () =
  let mul_reference a b =
    let w = Bits.width a in
    let acc = ref (Bits.zero w) in
    for i = 0 to w - 1 do
      if Bits.to_bool (Bits.select b ~high:i ~low:i) then
        acc := Bits.add !acc (Bits.sll a i)
    done;
    !acc
  in
  let check_mul what a b =
    let expect = mul_reference a b in
    check_bool (what ^ " mul") true (Bits.equal (Bits.mul a b) expect);
    check_bool (what ^ " mul commutes") true
      (Bits.equal (Bits.mul b a) expect);
    let dst = Bits.zero (Bits.width a) in
    Bits.mul_into ~dst a b;
    check_bool (what ^ " mul_into") true (Bits.equal dst expect)
  in
  List.iter
    (fun w ->
      let ones = Bits.ones w in
      check_mul (Printf.sprintf "ones*ones w=%d" w) ones ones;
      (* A single bit riding the limb boundary. *)
      let bit64 = Bits.sll (Bits.one w) 64 in
      check_mul (Printf.sprintf "bit64 w=%d" w) bit64 (Bits.of_int ~width:w 3);
      (* Alternating and block patterns that cross half-limb seams. *)
      let alt =
        Bits.of_string (String.init w (fun i -> if i mod 2 = 0 then '1' else '0'))
      in
      let blocks =
        Bits.of_string (String.init w (fun i -> if i mod 64 < 32 then '1' else '0'))
      in
      check_mul (Printf.sprintf "alt*blocks w=%d" w) alt blocks;
      for seed = 1 to 10 do
        Random.init ((w * 1000) + seed);
        check_mul
          (Printf.sprintf "random w=%d seed=%d" w seed)
          (Bits.random ~width:w) (Bits.random ~width:w)
      done)
    [ 65; 96; 100; 128; 130 ]

let test_concat_select () =
  let a = Bits.of_string "101" and b = Bits.of_string "01" in
  check_string "concat" "10101" (Bits.to_string (Bits.concat_msb [ a; b ]));
  check_string "repeat" "101101" (Bits.to_string (Bits.repeat a 2));
  check_string "select" "11" (Bits.to_string (Bits.select (Bits.of_string "0011") ~high:1 ~low:0))
  |> ignore;
  check_string "select mid" "10"
    (Bits.to_string (Bits.select (Bits.of_string "0100") ~high:2 ~low:1));
  Alcotest.check_raises "select out of range"
    (Invalid_argument "Bits.select: bad range [4:0] of width 4") (fun () ->
      ignore (Bits.select (Bits.of_string "0100") ~high:4 ~low:0))

let test_reduce () =
  check_bool "reduce_or zero" false (Bits.to_bool (Bits.reduce_or (Bits.zero 13)));
  check_bool "reduce_or some" true
    (Bits.to_bool (Bits.reduce_or (Bits.of_int ~width:13 64)));
  check_bool "reduce_and ones" true (Bits.to_bool (Bits.reduce_and (Bits.ones 13)));
  check_bool "reduce_and partial" false
    (Bits.to_bool (Bits.reduce_and (Bits.of_int ~width:13 64)));
  check_int "popcount" 3 (Bits.popcount (Bits.of_string "101001"))

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let props =
  [
    prop "to_string/of_string round trip" 500 arb_sized_value (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        Bits.equal b (Bits.of_string (Bits.to_string b)));
    prop "add matches int" 500 arb_pair_same_width (fun (w, a, b) ->
        let mask = (1 lsl w) - 1 in
        Bits.to_int (Bits.add (Bits.of_int ~width:w a) (Bits.of_int ~width:w b))
        = (a + b) land mask);
    prop "sub matches int" 500 arb_pair_same_width (fun (w, a, b) ->
        let mask = (1 lsl w) - 1 in
        Bits.to_int (Bits.sub (Bits.of_int ~width:w a) (Bits.of_int ~width:w b))
        = (a - b) land mask);
    prop "mul matches int (<=30 bits)" 500
      (let open QCheck in
       make
         ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
         Gen.(
           int_range 1 30 >>= fun w ->
           let bound = (1 lsl w) - 1 in
           map2 (fun a b -> (w, a, b)) (int_bound bound) (int_bound bound)))
      (fun (w, a, b) ->
        let mask = (1 lsl w) - 1 in
        Bits.to_int (Bits.mul (Bits.of_int ~width:w a) (Bits.of_int ~width:w b))
        = a * b land mask);
    prop "logic matches int" 500 arb_pair_same_width (fun (w, a, b) ->
        let ba = Bits.of_int ~width:w a and bb = Bits.of_int ~width:w b in
        Bits.to_int (Bits.logand ba bb) = a land b
        && Bits.to_int (Bits.logor ba bb) = a lor b
        && Bits.to_int (Bits.logxor ba bb) = a lxor b);
    prop "lognot involutive" 500 arb_sized_value (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        Bits.equal b (Bits.lognot (Bits.lognot b)));
    prop "compare matches int" 500 arb_pair_same_width (fun (w, a, b) ->
        let c = Bits.compare (Bits.of_int ~width:w a) (Bits.of_int ~width:w b) in
        (c < 0) = (a < b) && (c = 0) = (a = b));
    prop "add commutative (wide)" 200
      (let open QCheck in
       make ~print:(fun w -> Printf.sprintf "w=%d" w) Gen.(int_range 1 130))
      (fun w ->
        let a = Bits.random ~width:w and b = Bits.random ~width:w in
        Bits.equal (Bits.add a b) (Bits.add b a));
    prop "add associative (wide)" 200
      (let open QCheck in
       make ~print:(fun w -> Printf.sprintf "w=%d" w) Gen.(int_range 1 130))
      (fun w ->
        let a = Bits.random ~width:w
        and b = Bits.random ~width:w
        and c = Bits.random ~width:w in
        Bits.equal (Bits.add a (Bits.add b c)) (Bits.add (Bits.add a b) c));
    prop "x + neg x = 0" 200
      (let open QCheck in
       make ~print:(fun w -> Printf.sprintf "w=%d" w) Gen.(int_range 1 130))
      (fun w ->
        let a = Bits.random ~width:w in
        Bits.equal (Bits.add a (Bits.neg a)) (Bits.zero w));
    prop "concat then select recovers parts" 200
      (let open QCheck in
       make
         ~print:(fun (w1, w2) -> Printf.sprintf "w1=%d w2=%d" w1 w2)
         Gen.(pair (int_range 1 70) (int_range 1 70)))
      (fun (w1, w2) ->
        let a = Bits.random ~width:w1 and b = Bits.random ~width:w2 in
        let c = Bits.concat_msb [ a; b ] in
        Bits.equal a (Bits.select c ~high:(w1 + w2 - 1) ~low:w2)
        && Bits.equal b (Bits.select c ~high:(w2 - 1) ~low:0));
    prop "srl then sll clears low bits" 200
      (let open QCheck in
       make
         ~print:(fun (w, n) -> Printf.sprintf "w=%d n=%d" w n)
         Gen.(int_range 2 64 >>= fun w -> map (fun n -> (w, n)) (int_bound (w - 1))))
      (fun (w, n) ->
        let a = Bits.random ~width:w in
        let round = Bits.sll (Bits.srl a n) n in
        (* Low n bits must be zero; the rest must match a. *)
        (n = 0 || not (Bits.to_bool (Bits.select round ~high:(max 0 (n - 1)) ~low:0)))
        && Bits.equal
             (Bits.select round ~high:(w - 1) ~low:n)
             (Bits.select a ~high:(w - 1) ~low:n));
    prop "shift >= width saturates" 200
      (let open QCheck in
       make
         ~print:(fun (w, n) -> Printf.sprintf "w=%d n=%d" w n)
         Gen.(pair (int_range 1 130) (int_range 0 200)))
      (fun (w, extra) ->
        let n = w + extra in
        let a = Bits.random ~width:w in
        Bits.equal (Bits.sll a n) (Bits.zero w)
        && Bits.equal (Bits.srl a n) (Bits.zero w)
        && Bits.equal (Bits.sra a n)
             (if Bits.msb a then Bits.ones w else Bits.zero w));
    prop "wide mul matches shift-add reference" 200
      (let open QCheck in
       make ~print:(fun w -> Printf.sprintf "w=%d" w) Gen.(int_range 65 140))
      (fun w ->
        let a = Bits.random ~width:w and b = Bits.random ~width:w in
        let acc = ref (Bits.zero w) in
        for i = 0 to w - 1 do
          if Bits.to_bool (Bits.select b ~high:i ~low:i) then
            acc := Bits.add !acc (Bits.sll a i)
        done;
        Bits.equal (Bits.mul a b) !acc);
  ]

(* --- Differential: in-place kernels against the allocating operations
   and an independent bit-serial model --------------------------------------

   Values are seeded; the widths straddle every limb boundary the
   kernels special-case (one limb, exactly one limb, one bit over, two
   limbs, a partial third). *)

let diff_widths = [ 1; 2; 7; 8; 63; 64; 65; 127; 128; 130 ]

(* The model: a value is its bits, LSB first, moved in and out of
   [Bits] only through [bit] and [of_string]. *)
let model b = Array.init (Bits.width b) (Bits.bit b)

let of_model m =
  let n = Array.length m in
  Bits.of_string (String.init n (fun i -> if m.(n - 1 - i) then '1' else '0'))

let model_add ?(carry = false) a b =
  let c = ref carry in
  Array.mapi
    (fun i x ->
      let y = b.(i) in
      let s = x <> y <> !c in
      c := (x && y) || (!c && x <> y);
      s)
    a

let model_sub a b = model_add ~carry:true a (Array.map not b)

let model_mul a b =
  let w = Array.length a in
  let acc = ref (Array.make w false) in
  for i = 0 to w - 1 do
    if b.(i) then
      acc := model_add !acc (Array.init w (fun k -> k >= i && a.(k - i)))
  done;
  !acc

(* Unsigned comparison, MSB first. *)
let model_compare a b =
  let rec go i =
    if i < 0 then 0
    else if a.(i) = b.(i) then go (i - 1)
    else if b.(i) then -1
    else 1
  in
  go (Array.length a - 1)

(* Edge values plus seeded random ones. *)
let diff_values w =
  Random.init (7919 * w);
  [ Bits.zero w; Bits.one w; Bits.ones w; Bits.sll (Bits.one w) (w - 1) ]
  @ List.init 6 (fun _ -> Bits.random ~width:w)

let check_bits what expect got =
  Alcotest.(check string) what (Bits.to_string expect) (Bits.to_string got)

let op2s =
  [
    ("add", Bits.add, Bits.add_into, model_add ?carry:None);
    ("sub", Bits.sub, Bits.sub_into, model_sub);
    ("mul", Bits.mul, Bits.mul_into, model_mul);
    ("logand", Bits.logand, Bits.logand_into, Array.map2 ( && ));
    ("logor", Bits.logor, Bits.logor_into, Array.map2 ( || ));
    ("logxor", Bits.logxor, Bits.logxor_into, Array.map2 ( <> ));
  ]

(* Every element-wise [*_into] equals its allocating counterpart, into a
   fresh [dst] and into [dst] aliasing either operand or both; the
   allocating form equals the model. *)
let test_diff_op2 w () =
  let vs = diff_values w in
  List.iter
    (fun (name, op, op_into, m) ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let what = Printf.sprintf "%s w=%d" name w in
              let expect = op a b in
              check_bits (what ^ " model") (of_model (m (model a) (model b))) expect;
              let dst = Bits.zero w in
              op_into ~dst a b;
              check_bits (what ^ " into") expect dst;
              let a' = Bits.copy a in
              op_into ~dst:a' a' b;
              check_bits (what ^ " dst == a") expect a';
              let b' = Bits.copy b in
              op_into ~dst:b' a b';
              check_bits (what ^ " dst == b") expect b';
              let x = Bits.copy a in
              op_into ~dst:x x x;
              check_bits (what ^ " dst == a == b") (op a a) x)
            vs)
        vs)
    op2s;
  List.iter
    (fun a ->
      let expect = Bits.lognot a in
      check_bits "lognot model" (of_model (Array.map not (model a))) expect;
      let dst = Bits.zero w in
      Bits.lognot_into ~dst a;
      check_bits "lognot_into" expect dst;
      let a' = Bits.copy a in
      Bits.lognot_into ~dst:a' a';
      check_bits "lognot_into dst == a" expect a')
    vs

(* Comparisons and conversions: [eq_into]/[lt_into] against [eq]/[lt],
   [equal]/[compare]/[to_bool] against the model, [to_index] against
   [to_int_opt] plus the bound. *)
let test_diff_compare w () =
  let vs = diff_values w in
  let bounds = [ 0; 1; 2; 3; 7; 8; 255; 256; 1 lsl 40; max_int ] in
  List.iter
    (fun a ->
      let ma = model a in
      check_bool "to_bool" (Array.exists Fun.id ma) (Bits.to_bool a);
      List.iter
        (fun bound ->
          let expect =
            match Bits.to_int_opt a with Some v when v < bound -> v | _ -> -1
          in
          check_int
            (Printf.sprintf "to_index w=%d bound=%d" w bound)
            expect (Bits.to_index a ~bound))
        bounds;
      List.iter
        (fun b ->
          let c = model_compare ma (model b) in
          check_int "compare" c (Bits.compare a b);
          check_bool "equal" (c = 0) (Bits.equal a b);
          let dst = Bits.zero 1 in
          Bits.eq_into ~dst a b;
          check_bits "eq_into" (Bits.eq a b) dst;
          Bits.lt_into ~dst a b;
          check_bits "lt_into" (Bits.lt a b) dst;
          check_bool "lt" (c < 0) (Bits.to_bool (Bits.lt a b)))
        vs)
    vs

(* Structure and copies: [select_into] and [concat_msb_into] against
   [select] and [concat_msb] and the model; [blit_changed] reports
   exactly a change and leaves [dst] equal to [src]. *)
let test_diff_structure w () =
  let vs = diff_values w in
  Random.init (104729 * w);
  List.iter
    (fun a ->
      let ma = model a in
      for _ = 1 to 8 do
        let low = Random.int w in
        let high = low + Random.int (w - low) in
        let expect = Bits.select a ~high ~low in
        check_bits "select model" (of_model (Array.sub ma low (high - low + 1))) expect;
        let dst = Bits.zero (high - low + 1) in
        Bits.select_into ~dst a ~high ~low;
        check_bits (Printf.sprintf "select_into [%d:%d] w=%d" high low w) expect dst
      done;
      List.iter
        (fun b ->
          let parts = [ a; Bits.of_int ~width:3 5; b ] in
          let expect = Bits.concat_msb parts in
          check_bits "concat model"
            (of_model (Array.concat (List.rev_map model parts)))
            expect;
          let dst = Bits.zero (Bits.width expect) in
          Bits.concat_msb_into ~dst (Array.of_list parts);
          check_bits "concat_msb_into" expect dst;
          let dst = Bits.copy b in
          check_bool "blit_changed reports a change" (not (Bits.equal a b))
            (Bits.blit_changed ~src:a ~dst);
          check_bits "blit_changed copies" a dst;
          check_bool "blit_changed again is no change" false
            (Bits.blit_changed ~src:a ~dst))
        vs)
    vs

(* Raw limb writes keep the top limb normalized, so [equal], [compare]
   and [to_bool] see only the [width] valid bits. *)
let test_diff_limbs w () =
  let t = Bits.zero w in
  let top = Bits.limb_count t - 1 in
  for i = 0 to top do
    Bits.set_limb t i (-1L)
  done;
  check_bits "all limbs set = ones" (Bits.ones w) t;
  check_bool "equal ones" true (Bits.equal t (Bits.ones w));
  check_int "compare ones" 0 (Bits.compare t (Bits.ones w));
  let expect_top =
    if w mod 64 = 0 then -1L else Int64.pred (Int64.shift_left 1L (w mod 64))
  in
  Alcotest.(check int64) "top limb masked" expect_top (Bits.get_limb t top);
  for i = 0 to top do
    Bits.set_limb t i (if i = top then Int64.lognot expect_top else 0L)
  done;
  check_bool "bits above width alone are zero" false (Bits.to_bool t);
  check_bool "equal zero" true (Bits.equal t (Bits.zero w));
  Alcotest.check_raises "get_limb past the top"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Bits.get_limb t (top + 1)))

let differential =
  List.concat_map
    (fun w ->
      let case name f =
        Alcotest.test_case (Printf.sprintf "%s w=%d" name w) `Quick (f w)
      in
      [
        case "element-wise into" test_diff_op2;
        case "compare and to_index" test_diff_compare;
        case "select/concat/blit_changed" test_diff_structure;
        case "limbs stay normalized" test_diff_limbs;
      ])
    diff_widths

let () =
  Alcotest.run "bits"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_construct;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "wide vectors" `Quick test_wide;
          Alcotest.test_case "arithmetic edges" `Quick test_arith_edges;
          Alcotest.test_case "signed views" `Quick test_signed;
          Alcotest.test_case "shifts" `Quick test_shift;
          Alcotest.test_case "shift saturation at width" `Quick
            test_shift_saturation;
          Alcotest.test_case "wide multiply (>64 bits)" `Quick test_wide_mul;
          Alcotest.test_case "concat/select" `Quick test_concat_select;
          Alcotest.test_case "reductions" `Quick test_reduce;
        ] );
      ("properties", props);
      ("differential", differential);
    ]
