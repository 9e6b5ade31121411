(* Detail-level regression tests: emitter snapshot stability, timing
   model behaviours, power accounting, and container edge geometries. *)

open Hwpat_rtl
open Hwpat_rtl.Signal
open Hwpat_containers
open Hwpat_test_support.Sim_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Emitter snapshot --------------------------------------------------- *)

(* A tiny fixed circuit whose VHDL we pin exactly: catches accidental
   emitter format changes. Node uids vary with global allocation order,
   so normalise them before comparing. *)
let normalise text =
  let buf = Buffer.create (String.length text) in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = '_' && !i + 1 < n && text.[!i + 1] >= '0' && text.[!i + 1] <= '9' then begin
      Buffer.add_string buf "_N";
      incr i;
      while !i < n && text.[!i] >= '0' && text.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let snapshot_circuit () =
  let a = input "a" 4 in
  let q = reg ~enable:(input "en" 1) (a +: one 4) -- "acc" in
  Circuit.create_exn ~name:"snap" [ ("q", q) ]

let vhdl_expected =
  normalise
    {|library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity snap is
  port (
    clk : in std_logic;
    a : in std_logic_vector(3 downto 0);
    en : in std_logic_vector(0 downto 0);
    q : out std_logic_vector(3 downto 0)
  );
end snap;

architecture rtl of snap is
  signal s_3 : std_logic_vector(3 downto 0);
  signal acc_4 : std_logic_vector(3 downto 0);
begin
  s_3 <= std_logic_vector(unsigned(a) + unsigned("0001"));

  process (clk)
  begin
    if rising_edge(clk) then
      if en = "1" then
        acc_4 <= s_3;
      end if;
    end if;
  end process;

  q <= acc_4;
end rtl;
|}

let test_vhdl_snapshot () =
  Alcotest.(check string) "vhdl stable" vhdl_expected
    (normalise (Vhdl.to_string (snapshot_circuit ())))

let test_verilog_snapshot () =
  let text = normalise (Verilog.to_string (snapshot_circuit ())) in
  let expected =
    normalise
      {|module snap (clk, a, en, q);
  input clk;
  input [3:0] a;
  input en;
  output [3:0] q;

  wire [3:0] s_3;
  reg [3:0] acc_4;

  assign s_3 = a + 4'b0001;

  always @(posedge clk) begin
    if (en) acc_4 <= s_3;
  end

  assign q = acc_4;
endmodule
|}
  in
  Alcotest.(check string) "verilog stable" expected text

(* --- Timing: carry chains scale with width ------------------------------ *)

let test_timing_carry_scaling () =
  let fmax w =
    let s = input "a" w +: input "b" w in
    (Hwpat_synthesis.Timing.analyze (Circuit.create_exn ~name:"a" [ ("s", s) ]))
      .Hwpat_synthesis.Timing.fmax_mhz
  in
  check_bool "wider adders are slower" true (fmax 64 < fmax 8);
  (* but only via the carry term, so the gap is modest *)
  check_bool "carry cost is incremental" true (fmax 64 > 0.5 *. fmax 8)

let test_timing_wiring_free () =
  let a = input "a" 16 in
  let wrapped =
    concat_msb [ select a ~high:15 ~low:8; select a ~high:7 ~low:0 ]
  in
  let t =
    Hwpat_synthesis.Timing.analyze
      (Circuit.create_exn ~name:"w" [ ("y", wrapped) ])
  in
  check_int "no logic levels through wiring" 0 t.Hwpat_synthesis.Timing.logic_levels

(* --- Power: toggle accounting ------------------------------------------- *)

let test_power_toggle_accounting () =
  (* One register bit flipping every cycle: the register toggles once
     per cycle, plus its inverter input toggles once. *)
  let q = reg_fb ~width:1 (fun q -> ~:q) in
  let c = Circuit.create_exn ~name:"t" [ ("q", q) ] in
  let sim = Cyclesim.create c in
  let m = Hwpat_synthesis.Power.monitor sim in
  for _ = 1 to 41 do
    Cyclesim.cycle sim;
    Hwpat_synthesis.Power.sample m
  done;
  let p = Hwpat_synthesis.Power.estimate m in
  (* q and ~q each flip every cycle => 2 toggles/cycle (wires tracked
     through the feedback add a couple more; accept a small band). *)
  check_bool "toggles in expected band" true
    (p.Hwpat_synthesis.Power.toggles_per_cycle >= 2.0
    && p.Hwpat_synthesis.Power.toggles_per_cycle <= 4.0)

(* --- Containers at awkward geometries ------------------------------------ *)

let test_queue_non_power_of_two_depth () =
  let sim =
    seq_harness ~name:"q6" ~width:8 (fun d -> Queue_c.over_bram ~depth:6 ~width:8 d)
  in
  quiesce sim;
  (* Cycle three times the depth so the compare-wrap pointer logic is
     exercised past the 2^k boundary. *)
  for round = 0 to 2 do
    for v = 0 to 5 do
      ignore (seq_put sim ~width:8 ((round * 16) + v))
    done;
    Cyclesim.settle sim;
    check_int "full at 6" 1 (out_int sim "full");
    for v = 0 to 5 do
      check_int "order" ((round * 16) + v) (fst (seq_get sim))
    done;
    Cyclesim.settle sim;
    check_int "empty" 1 (out_int sim "empty")
  done

let test_assoc_capacity_exhaustion () =
  let d =
    {
      Container_intf.lookup_req = input "lookup_req" 1;
      insert_req = input "insert_req" 1;
      delete_req = input "delete_req" 1;
      key = input "key" 8;
      value_in = input "value_in" 8;
    }
  in
  let a = Assoc_array.over_bram ~slots:4 ~key_width:8 ~value_width:8 d in
  let c =
    Circuit.create_exn ~name:"tiny_assoc"
      [
        ("insert_ack", a.Container_intf.insert_ack);
        ("insert_ok", a.Container_intf.insert_ok);
        ("lookup_ack", a.Container_intf.lookup_ack);
        ("lookup_found", a.Container_intf.lookup_found);
        ("occupancy", a.Container_intf.occupancy);
      ]
  in
  let sim = Cyclesim.create c in
  List.iter
    (fun n -> set sim n ~width:1 0)
    [ "lookup_req"; "insert_req"; "delete_req" ];
  set sim "key" ~width:8 0;
  set sim "value_in" ~width:8 0;
  Cyclesim.cycle sim;
  let insert k =
    set sim "key" ~width:8 k;
    set sim "value_in" ~width:8 k;
    set sim "insert_req" ~width:1 1;
    ignore (cycles_until ~timeout:1000 sim "insert_ack");
    let ok = out_int sim "insert_ok" in
    set sim "insert_req" ~width:1 0;
    Cyclesim.cycle sim;
    ok
  in
  for k = 1 to 4 do
    check_int (Printf.sprintf "insert %d fits" k) 1 (insert k)
  done;
  Cyclesim.settle sim;
  check_int "table full" 4 (out_int sim "occupancy");
  check_int "fifth insert fails" 0 (insert 5);
  (* Updating an existing key still succeeds when full. *)
  check_int "update succeeds when full" 1 (insert 3);
  Cyclesim.settle sim;
  check_int "occupancy unchanged" 4 (out_int sim "occupancy")

(* --- Bits extras ---------------------------------------------------------- *)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let bits_props =
  [
    prop "sra equals arithmetic shift of signed value" 300
      QCheck.(pair (int_range 2 29) (int_range 0 31))
      (fun (w, n) ->
        let v = Random.int (1 lsl w) in
        let b = Bits.of_int ~width:w v in
        let signed = Bits.to_signed_int b in
        Bits.to_signed_int (Bits.sra b (min n (w - 1))) = signed asr min n (w - 1));
    prop "to_signed round trips" 300
      QCheck.(pair (int_range 2 30) (int_range 0 1000000))
      (fun (w, v) ->
        let v = v mod (1 lsl w) in
        let b = Bits.of_int ~width:w v in
        Bits.equal b (Bits.of_int ~width:w (Bits.to_signed_int b)));
    prop "mul associative (20-bit window)" 200
      QCheck.(triple (int_bound 1023) (int_bound 1023) (int_bound 1023))
      (fun (a, b, c) ->
        let w = 30 in
        let f = Bits.of_int ~width:w in
        Bits.equal
          (Bits.mul (Bits.mul (f a) (f b)) (f c))
          (Bits.mul (f a) (Bits.mul (f b) (f c))));
  ]

(* --- Output-file discipline --------------------------------------------- *)

let read_back path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

(* Every writer in the library funnels through Atomic_file.with_out,
   which streams into a temp file and renames over the target only
   after a clean close. A callback that raises must leave the previous
   contents of [path] untouched, clean up the temp file, and let the
   exception reach the caller untouched — a crashed writer never
   publishes a truncated artifact. *)
let test_writer_atomic_on_raise () =
  let path = Filename.temp_file "hwpat_util" ".txt" in
  Hwpat_base.Atomic_file.write path "previous";
  let escaped = ref false in
  (try
     Hwpat_base.Atomic_file.with_out path (fun oc ->
         output_string oc "partial";
         failwith "writer exploded")
   with Failure msg -> escaped := msg = "writer exploded");
  check_bool "exception propagates" true !escaped;
  check_bool "no orphaned temp file" false (Sys.file_exists (path ^ ".tmp"));
  let contents = read_back path in
  Sys.remove path;
  check_bool "previous contents survive a failed write" true
    (contents = "previous")

let test_write_file_roundtrip () =
  let path = Filename.temp_file "hwpat_util" ".txt" in
  Hwpat_base.Atomic_file.write path "hello\n";
  let contents = read_back path in
  Sys.remove path;
  check_bool "roundtrip" true (contents = "hello\n")

let () =
  Alcotest.run "details"
    [
      ( "emitters",
        [
          Alcotest.test_case "vhdl snapshot" `Quick test_vhdl_snapshot;
          Alcotest.test_case "verilog snapshot" `Quick test_verilog_snapshot;
        ] );
      ( "timing",
        [
          Alcotest.test_case "carry scaling" `Quick test_timing_carry_scaling;
          Alcotest.test_case "wiring free" `Quick test_timing_wiring_free;
        ] );
      ("power", [ Alcotest.test_case "toggle accounting" `Quick test_power_toggle_accounting ]);
      ( "geometries",
        [
          Alcotest.test_case "queue depth 6" `Quick test_queue_non_power_of_two_depth;
          Alcotest.test_case "assoc exhaustion" `Quick test_assoc_capacity_exhaustion;
        ] );
      ("bits properties", bits_props);
      ( "writers",
        [
          Alcotest.test_case "atomic on raise" `Quick test_writer_atomic_on_raise;
          Alcotest.test_case "write_file roundtrip" `Quick test_write_file_roundtrip;
        ] );
    ]
