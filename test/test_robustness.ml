open Hwpat_rtl
open Hwpat_rtl.Signal
open Hwpat_video
open Hwpat_core
open Hwpat_test_support.Sim_util
module Protect = Hwpat_containers.Protect
module Mem_target = Hwpat_containers.Mem_target
module Container_intf = Hwpat_containers.Container_intf
module Sram_arbiter = Hwpat_devices.Sram_arbiter

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------------------------------------------------------- *)
(* Monitors stay silent on every healthy design.                      *)
(* ---------------------------------------------------------------- *)

(* run_campaign's fault-free reference run raises if the design hangs
   or trips a monitor, so a zero-fault campaign IS the check. *)
let test_monitors_silent_all_designs () =
  List.iter
    (fun (design, build) ->
      let s =
        Faultsim.run_campaign ~faults:0 ~frame_width:6 ~frame_height:6 ~build
          ~design ()
      in
      check_int (design ^ ": zero faults ran") 0 (List.length s.Faultsim.results))
    Faultsim.designs

let test_monitors_attach_by_convention () =
  List.iter
    (fun design ->
      let s =
        Faultsim.run_campaign ~faults:0 ~frame_width:6 ~frame_height:6
          ~build:(Faultsim.find_design design) ~design ()
      in
      check_bool (design ^ ": monitors auto-attached") true (s.Faultsim.monitors > 0))
    [ "saa2vga_sram_pattern"; "saa2vga_sram_custom"; "saa2vga_sram_protected" ]

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let qcheck_monitors_silent =
  prop "monitors silent on random frames" 6
    QCheck.(triple (int_range 2 6) (int_range 2 6) (int_range 0 1000))
    (fun (w, h, seed) ->
      let frame = Hwpat_video.Pattern.random ~seed ~width:w ~height:h ~depth:8 () in
      List.for_all
        (fun design ->
          let circuit = Faultsim.find_design design () in
          let collected, _, monitor, _, err =
            Faultsim.run_once ~budget:(400 * w * h) ~frame circuit
          in
          List.length collected = Frame.pixels frame
          && Monitor.ok monitor && not err)
        [ "saa2vga_fifo_pattern"; "saa2vga_sram_pattern"; "saa2vga_sram_protected" ])

(* ---------------------------------------------------------------- *)
(* Every injected handshake-protocol violation is flagged.            *)
(* ---------------------------------------------------------------- *)

(* A harness whose req/ack/payload are plain inputs, so the test can
   break the protocol on purpose and check the monitor notices. *)
let handshake_harness () =
  let req = input "m_req" 1 in
  let ack = input "m_ack" 1 in
  let payload = input "m_payload" 4 in
  let circuit =
    Circuit.create_exn ~name:"hs_harness"
      [ ("req_o", req); ("ack_o", ack); ("payload_o", payload) ]
  in
  let sim = Cyclesim.create circuit in
  let monitor = Monitor.create sim in
  Monitor.add_handshake monitor ~name:"m" ~payload ~req ~ack ();
  (sim, monitor)

let drive_handshake sim monitor steps =
  List.iter
    (fun (r, a, p) ->
      set sim "m_req" ~width:1 r;
      set sim "m_ack" ~width:1 a;
      set sim "m_payload" ~width:4 p;
      Cyclesim.cycle sim;
      Monitor.sample monitor)
    steps

let first_signal monitor =
  match Monitor.first_violation monitor with
  | Some v -> v.Monitor.signal
  | None -> "(none)"

let test_handshake_violations_all_flagged () =
  (* Each protocol breach, injected deliberately, must be flagged —
     and attributed to the right signal. *)
  let scenarios =
    [
      ("spurious ack", [ (0, 0, 0); (0, 1, 0) ], "ack");
      ("dropped request", [ (1, 0, 3); (0, 0, 3) ], "req");
      ("payload changed", [ (1, 0, 3); (1, 0, 5) ], "payload");
    ]
  in
  List.iter
    (fun (label, steps, expect) ->
      let sim, monitor = handshake_harness () in
      drive_handshake sim monitor steps;
      check_bool (label ^ ": flagged") false (Monitor.ok monitor);
      Alcotest.(check string) (label ^ ": attributed") expect (first_signal monitor))
    scenarios;
  (* And a clean transaction raises nothing: req held to ack, then idle. *)
  let sim, monitor = handshake_harness () in
  drive_handshake sim monitor [ (1, 0, 9); (1, 1, 9); (0, 0, 0) ];
  check_bool "clean transaction silent" true (Monitor.ok monitor)

let fifo_harness () =
  let count = input "f_count" 4 in
  let empty = input "f_empty" 1 in
  let full = input "f_full" 1 in
  let circuit =
    Circuit.create_exn ~name:"fifo_harness"
      [ ("c_o", count); ("e_o", empty); ("f_o", full) ]
  in
  let sim = Cyclesim.create circuit in
  let monitor = Monitor.create sim in
  Monitor.add_fifo monitor ~name:"f" ~depth:8 ~full ~count ~empty ();
  (sim, monitor)

let drive_fifo sim monitor steps =
  List.iter
    (fun (c, e, f) ->
      set sim "f_count" ~width:4 c;
      set sim "f_empty" ~width:1 e;
      set sim "f_full" ~width:1 f;
      Cyclesim.cycle sim;
      Monitor.sample monitor)
    steps

let test_fifo_invariants_all_flagged () =
  let scenarios =
    [
      ("empty flag lies", [ (0, 1, 0); (3, 1, 0) ], "empty");
      ("occupancy jump", [ (0, 1, 0); (2, 0, 0) ], "count");
      ("full and empty", [ (0, 1, 1) ], "full");
      ("overflow", [ (12, 0, 0) ], "count");
    ]
  in
  List.iter
    (fun (label, steps, expect) ->
      let sim, monitor = fifo_harness () in
      drive_fifo sim monitor steps;
      check_bool (label ^ ": flagged") false (Monitor.ok monitor);
      Alcotest.(check string) (label ^ ": attributed") expect (first_signal monitor))
    scenarios;
  let sim, monitor = fifo_harness () in
  drive_fifo sim monitor [ (0, 1, 0); (1, 0, 0); (2, 0, 0); (1, 0, 0); (0, 1, 0) ];
  check_bool "legal occupancy trace silent" true (Monitor.ok monitor)

let test_add_auto_finds_conventions () =
  let req = input "m_req" 1 and ack = input "m_ack" 1 in
  let count = input "f_count" 4 and empty = input "f_empty" 1 in
  let full = input "f_full" 1 in
  let circuit =
    Circuit.create_exn ~name:"auto_harness"
      [ ("o1", req); ("o2", ack); ("o3", count); ("o4", empty); ("o5", full) ]
  in
  let sim = Cyclesim.create circuit in
  let monitor = Monitor.create sim in
  check_int "auto-attached both monitors" 2 (Monitor.add_auto monitor);
  set sim "m_req" ~width:1 0;
  set sim "m_ack" ~width:1 1;
  set sim "f_count" ~width:4 3;
  set sim "f_empty" ~width:1 1;
  set sim "f_full" ~width:1 0;
  Cyclesim.cycle sim;
  Monitor.sample monitor;
  check_int "both breaches flagged" 2 (List.length (Monitor.violations monitor));
  check_bool "vcd window renders" true (String.length (Monitor.vcd_window monitor) > 0)

(* The VCD window of a run longer than the window, pinned byte for
   byte: only the last [window] samples are rendered, oldest first, and
   the FIFO's signals — watched from the third sample on — are absent
   from the sample before they were watched. *)
let test_vcd_window_pinned () =
  let req = input "m_req" 1 and ack = input "m_ack" 1 in
  let payload = input "m_payload" 4 in
  let count = input "f_count" 3 and empty = input "f_empty" 1 in
  let circuit =
    Circuit.create_exn ~name:"vcd_harness"
      [ ("o1", req); ("o2", ack); ("o3", payload); ("o4", count); ("o5", empty) ]
  in
  let sim = Cyclesim.create circuit in
  let monitor = Monitor.create ~window:8 sim in
  Monitor.add_handshake monitor ~name:"m" ~payload ~req ~ack ();
  List.iteri
    (fun i (r, a, p, c) ->
      if i = 2 then Monitor.add_fifo monitor ~name:"f" ~count ~empty ();
      set sim "m_req" ~width:1 r;
      set sim "m_ack" ~width:1 a;
      set sim "m_payload" ~width:4 p;
      set sim "f_count" ~width:3 c;
      set sim "f_empty" ~width:1 (if c = 0 then 1 else 0);
      Cyclesim.cycle sim;
      Monitor.sample monitor)
    [
      (0, 0, 0, 0); (1, 0, 5, 1); (1, 1, 5, 2); (0, 0, 9, 2); (1, 0, 3, 1);
      (1, 0, 3, 0); (1, 1, 3, 0); (0, 0, 12, 1); (0, 0, 7, 1);
    ];
  check_bool "no violations" true (Monitor.ok monitor);
  Alcotest.(check string) "vcd window" {|$timescale 1 ns $end
$scope module monitor $end
$var wire 1 ! m_req $end
$var wire 1 " m_ack $end
$var wire 4 # m_payload $end
$var wire 3 $ f_count $end
$var wire 1 % f_empty $end
$upscope $end
$enddefinitions $end
#1
1!
0"
b0101 #
#2
1!
1"
b0101 #
b010 $
0%
#3
0!
0"
b1001 #
b010 $
0%
#4
1!
0"
b0011 #
b001 $
0%
#5
1!
0"
b0011 #
b000 $
1%
#6
1!
1"
b0011 #
b000 $
1%
#7
0!
0"
b1100 #
b001 $
0%
#8
0!
0"
b0111 #
b001 $
0%
|}
    (Monitor.vcd_window monitor)

(* ---------------------------------------------------------------- *)
(* Parity detects every single-bit corruption of protected storage.   *)
(* ---------------------------------------------------------------- *)

let parity_width = 8
let parity_words = 16

let parity_harness () =
  let open Container_intf in
  let target w = Mem_target.bram ~name:"pmem" ~size:parity_words ~width:w in
  let wrapped, errs =
    Protect.apply ~name:"p" ~width:parity_width ~parity:true ~op_timeout:None
      target
  in
  let request =
    {
      mem_req = input "req" 1;
      mem_we = input "we" 1;
      mem_addr = input "addr" (Util.address_bits parity_words);
      mem_wdata = input "wdata" parity_width;
    }
  in
  let port = wrapped request in
  Circuit.create_exn ~name:"parity_harness"
    [
      ("ack", port.mem_ack);
      ("rdata", port.mem_rdata);
      ("perr", errs.Protect.parity_err);
    ]

let mem_write sim v =
  set sim "req" ~width:1 1;
  set sim "we" ~width:1 1;
  set sim "addr" ~width:4 0;
  set sim "wdata" ~width:8 v;
  ignore (cycles_until sim "ack");
  set sim "req" ~width:1 0;
  Cyclesim.cycle sim

let mem_read sim =
  set sim "req" ~width:1 1;
  set sim "we" ~width:1 0;
  set sim "addr" ~width:4 0;
  ignore (cycles_until sim "ack");
  let v = out_int sim "rdata" in
  set sim "req" ~width:1 0;
  (* the sticky error flag latches on the edge ending the ack cycle *)
  Cyclesim.cycle sim;
  v

let test_parity_detects_every_bit_flip () =
  let circuit = parity_harness () in
  let storage =
    match Circuit.memories circuit with
    | [ m ] -> m
    | ms -> Alcotest.failf "expected one protected memory, found %d" (List.length ms)
  in
  (* Every bit of the widened word — payload bits 0..7 AND the parity
     bit at position 8 — must be caught when flipped. *)
  for bit = 0 to parity_width do
    let sim = Cyclesim.create circuit in
    let injector = Fault.create sim in
    set sim "req" ~width:1 0;
    Cyclesim.cycle sim;
    mem_write sim 0xA5;
    Fault.inject injector (Fault.Mem_flip { memory = storage; addr = 0; bit });
    ignore (mem_read sim);
    check_int (Printf.sprintf "bit %d flip detected" bit) 1 (out_int sim "perr")
  done;
  (* Control: an uncorrupted word reads back clean with the flag low. *)
  let sim = Cyclesim.create circuit in
  set sim "req" ~width:1 0;
  Cyclesim.cycle sim;
  mem_write sim 0xA5;
  check_int "clean read-back" 0xA5 (mem_read sim);
  check_int "no false alarm" 0 (out_int sim "perr")

let test_disabled_protection_is_identity () =
  (* parity:false + op_timeout:None must add zero hardware: the wrapped
     and bare targets elaborate to structurally identical circuits. *)
  let open Container_intf in
  let build wrap =
    let target w = Mem_target.bram ~name:"pmem" ~size:parity_words ~width:w in
    let mk =
      if wrap then
        fst
          (Protect.apply ~name:"p" ~width:parity_width ~parity:false
             ~op_timeout:None target)
      else target parity_width
    in
    let request =
      {
        mem_req = input "req" 1;
        mem_we = input "we" 1;
        mem_addr = input "addr" (Util.address_bits parity_words);
        mem_wdata = input "wdata" parity_width;
      }
    in
    let port = mk request in
    Circuit.create_exn ~name:"bare_harness"
      [ ("ack", port.mem_ack); ("rdata", port.mem_rdata) ]
  in
  let wrapped = build true and bare = build false in
  check_int "same node count"
    (List.length (Circuit.signals bare))
    (List.length (Circuit.signals wrapped))

(* ---------------------------------------------------------------- *)
(* Watchdog: a dead acknowledge degrades gracefully instead of        *)
(* hanging, and raises the error flag.                                *)
(* ---------------------------------------------------------------- *)

let test_watchdog_unhangs_dead_ack () =
  let circuit =
    Saa2vga.build_protected ~depth:16 ~op_timeout:(Some 8) ~faulty:true ()
  in
  let frame = Hwpat_video.Pattern.gradient ~width:6 ~height:6 ~depth:8 in
  let drop = Circuit.find_input circuit "in_sram_fault_drop_ack" in
  let events =
    [
      {
        Fault.at = 30;
        fault = Fault.Stuck_at { signal = drop; value = Bits.one 1; cycles = 0 };
      };
    ]
  in
  let collected, _, _, _, err =
    Faultsim.run_once ~events ~budget:20_000 ~frame circuit
  in
  check_int "all pixels still delivered" (Frame.pixels frame)
    (List.length collected);
  check_bool "degradation flagged on err" true err

let test_protected_faultfree_bit_exact () =
  let frame = Hwpat_video.Pattern.gradient ~width:8 ~height:8 ~depth:8 in
  let reference, _, _, _, _ =
    Faultsim.run_once ~budget:30_000 ~frame
      (Saa2vga.build ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern ())
  in
  let collected, _, monitor, _, err =
    Faultsim.run_once ~budget:30_000 ~frame (Saa2vga.build_protected ())
  in
  Alcotest.(check (list int)) "bit-identical with unprotected" reference collected;
  check_bool "monitors silent" true (Monitor.ok monitor);
  check_bool "err low" false err

(* ---------------------------------------------------------------- *)
(* Campaigns are deterministic in the seed.                           *)
(* ---------------------------------------------------------------- *)

let fingerprint (s : Faultsim.summary) =
  List.map
    (fun (r : Faultsim.result) ->
      ( r.Faultsim.description,
        (Faultsim.outcome_name r.outcome, (r.err_flag, r.completed, r.cycles)) ))
    s.results

let test_campaign_deterministic () =
  let run () =
    Faultsim.run_campaign ~seed:5 ~faults:8 ~frame_width:6 ~frame_height:6
      ~build:(Faultsim.find_design "saa2vga_sram_pattern")
      ~design:"saa2vga_sram_pattern" ()
  in
  let a = run () and b = run () in
  Alcotest.(check (list (pair string (pair string (triple bool bool int)))))
    "same seed, same outcomes" (fingerprint a) (fingerprint b)

(* ---------------------------------------------------------------- *)
(* Shared-SRAM arbiter: no starvation, bounded waits under            *)
(* randomized two-client contention.                                  *)
(* ---------------------------------------------------------------- *)

let arbiter_words = 16

let arbiter_harness () =
  let abits = Util.address_bits arbiter_words in
  let client pfx =
    {
      Sram_arbiter.req = input (pfx ^ "_req") 1;
      we = input (pfx ^ "_we") 1;
      addr = input (pfx ^ "_addr") abits;
      wr_data = input (pfx ^ "_wd") 8;
    }
  in
  let a = client "a" and b = client "b" in
  let t = Sram_arbiter.create ~words:arbiter_words ~width:8 ~wait_states:1 ~a ~b () in
  let circuit =
    Circuit.create_exn ~name:"arb_harness"
      Sram_arbiter.
        [
          ("a_ack", t.a.ack);
          ("a_rd", t.a.rd_data);
          ("b_ack", t.b.ack);
          ("b_rd", t.b.rd_data);
        ]
  in
  let sim = Cyclesim.create circuit in
  List.iter
    (fun p ->
      set sim (p ^ "_req") ~width:1 0;
      set sim (p ^ "_we") ~width:1 0;
      set sim (p ^ "_addr") ~width:4 0;
      set sim (p ^ "_wd") ~width:8 0)
    [ "a"; "b" ];
  Cyclesim.cycle sim;
  sim

let test_arbiter_no_starvation () =
  let sim = arbiter_harness () in
  (* Both clients hammer back-to-back reads; alternating priority must
     split the bandwidth essentially evenly. *)
  set sim "a_req" ~width:1 1;
  set sim "b_req" ~width:1 1;
  let a_acks = ref 0 and b_acks = ref 0 in
  for _ = 1 to 400 do
    Cyclesim.cycle sim;
    if out_int sim "a_ack" = 1 then incr a_acks;
    if out_int sim "b_ack" = 1 then incr b_acks
  done;
  check_bool "client a served" true (!a_acks > 10);
  check_bool "client b served" true (!b_acks > 10);
  check_bool
    (Printf.sprintf "balanced service (a=%d b=%d)" !a_acks !b_acks)
    true
    (abs (!a_acks - !b_acks) <= 2)

let test_arbiter_bounded_wait () =
  let sim = arbiter_harness () in
  let rng = Random.State.make [| 0xA3B1 |] in
  let prefixes = [| "a"; "b" |] in
  let requesting = [| false; false |] in
  let wait = [| 0; 0 |] in
  let served = [| 0; 0 |] in
  let worst = ref 0 in
  for _ = 1 to 600 do
    for i = 0 to 1 do
      if (not requesting.(i)) && Random.State.bool rng then begin
        requesting.(i) <- true;
        (* payload chosen at request time and held until ack *)
        set sim (prefixes.(i) ^ "_req") ~width:1 1;
        set sim (prefixes.(i) ^ "_we") ~width:1 (Random.State.int rng 2);
        set sim (prefixes.(i) ^ "_addr") ~width:4 (Random.State.int rng arbiter_words);
        set sim (prefixes.(i) ^ "_wd") ~width:8 (Random.State.int rng 256)
      end
    done;
    Cyclesim.cycle sim;
    for i = 0 to 1 do
      if requesting.(i) then
        if out_int sim (prefixes.(i) ^ "_ack") = 1 then begin
          served.(i) <- served.(i) + 1;
          worst := max !worst wait.(i);
          wait.(i) <- 0;
          requesting.(i) <- false;
          set sim (prefixes.(i) ^ "_req") ~width:1 0
        end
        else wait.(i) <- wait.(i) + 1
    done
  done;
  check_bool "client a progressed" true (served.(0) > 20);
  check_bool "client b progressed" true (served.(1) > 20);
  check_bool
    (Printf.sprintf "worst-case wait bounded (%d cycles)" !worst)
    true (!worst <= 20)

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "robustness"
    [
      ( "monitors",
        [
          Alcotest.test_case "silent on all healthy designs" `Slow
            test_monitors_silent_all_designs;
          Alcotest.test_case "auto-attach on saa2vga designs" `Slow
            test_monitors_attach_by_convention;
          qcheck_monitors_silent;
          Alcotest.test_case "every handshake violation flagged" `Quick
            test_handshake_violations_all_flagged;
          Alcotest.test_case "every fifo invariant breach flagged" `Quick
            test_fifo_invariants_all_flagged;
          Alcotest.test_case "add_auto finds naming conventions" `Quick
            test_add_auto_finds_conventions;
          Alcotest.test_case "vcd window pinned past the window" `Quick
            test_vcd_window_pinned;
        ] );
      ( "protection",
        [
          Alcotest.test_case "parity detects every bit flip" `Quick
            test_parity_detects_every_bit_flip;
          Alcotest.test_case "disabled protection adds nothing" `Quick
            test_disabled_protection_is_identity;
          Alcotest.test_case "watchdog unhangs dead ack" `Quick
            test_watchdog_unhangs_dead_ack;
          Alcotest.test_case "protected design bit-exact fault-free" `Quick
            test_protected_faultfree_bit_exact;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "deterministic in the seed" `Slow
            test_campaign_deterministic;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "no starvation" `Quick test_arbiter_no_starvation;
          Alcotest.test_case "bounded wait under contention" `Quick
            test_arbiter_bounded_wait;
        ] );
    ]
