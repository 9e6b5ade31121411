open Hwpat_rtl
open Hwpat_rtl.Signal

let check_int = Alcotest.(check int)

let out_int sim name = Bits.to_int !(Cyclesim.out_port sim name)
let set sim name ~width v = Cyclesim.in_port sim name := Bits.of_int ~width v

let test_combinational () =
  let a = input "a" 8 and b = input "b" 8 in
  let c =
    Circuit.create_exn ~name:"alu"
      [
        ("sum", a +: b);
        ("diff", a -: b);
        ("prod", a *: b);
        ("conj", a &: b);
        ("disj", a |: b);
        ("xor", a ^: b);
        ("eq", a ==: b);
        ("lt", a <: b);
        ("inv", ~:a);
      ]
  in
  let sim = Cyclesim.create c in
  set sim "a" ~width:8 200;
  set sim "b" ~width:8 100;
  Cyclesim.cycle sim;
  check_int "sum" ((200 + 100) land 255) (out_int sim "sum");
  check_int "diff" 100 (out_int sim "diff");
  check_int "prod" (200 * 100 land 255) (out_int sim "prod");
  check_int "conj" (200 land 100) (out_int sim "conj");
  check_int "disj" (200 lor 100) (out_int sim "disj");
  check_int "xor" (200 lxor 100) (out_int sim "xor");
  check_int "eq" 0 (out_int sim "eq");
  check_int "lt" 0 (out_int sim "lt");
  check_int "inv" (lnot 200 land 255) (out_int sim "inv");
  set sim "b" ~width:8 200;
  Cyclesim.cycle sim;
  check_int "eq after change" 1 (out_int sim "eq")

let test_mux () =
  let s = input "s" 2 in
  let cases = [ of_int ~width:8 10; of_int ~width:8 20; of_int ~width:8 30 ] in
  let c = Circuit.create_exn ~name:"mux" [ ("y", mux s cases) ] in
  let sim = Cyclesim.create c in
  let try_sel v expect =
    set sim "s" ~width:2 v;
    Cyclesim.cycle sim;
    check_int (Printf.sprintf "sel=%d" v) expect (out_int sim "y")
  in
  try_sel 0 10;
  try_sel 1 20;
  try_sel 2 30;
  (* Out of range repeats the last case. *)
  try_sel 3 30

let test_counter () =
  let counter =
    reg_fb ~width:8 ~clear:(input "clr" 1) ~enable:(input "en" 1) (fun q ->
        q +: one 8)
  in
  let c = Circuit.create_exn ~name:"counter" [ ("q", counter) ] in
  let sim = Cyclesim.create c in
  set sim "clr" ~width:1 0;
  set sim "en" ~width:1 1;
  for _ = 1 to 5 do
    Cyclesim.cycle sim
  done;
  (* Output is the pre-edge value: after 5 cycles the output observed on
     the 5th call was 4. Settle to see the committed value. *)
  Cyclesim.settle sim;
  check_int "counted to 5" 5 (out_int sim "q");
  set sim "en" ~width:1 0;
  Cyclesim.cycle sim;
  Cyclesim.settle sim;
  check_int "hold when disabled" 5 (out_int sim "q");
  set sim "clr" ~width:1 1;
  Cyclesim.cycle sim;
  Cyclesim.settle sim;
  check_int "clear wins" 0 (out_int sim "q")

let test_reg_init () =
  let q = reg ~init:(Bits.of_int ~width:8 42) (input "d" 8) in
  let c = Circuit.create_exn ~name:"init" [ ("q", q) ] in
  let sim = Cyclesim.create c in
  set sim "d" ~width:8 7;
  Cyclesim.settle sim;
  check_int "init value" 42 (out_int sim "q");
  Cyclesim.cycle sim;
  Cyclesim.settle sim;
  check_int "loaded" 7 (out_int sim "q");
  Cyclesim.reset sim;
  check_int "reset restores init" 42 (out_int sim "q")

let test_memory_async () =
  let m = create_memory ~size:16 ~width:8 () in
  mem_write_port m ~enable:(input "we" 1) ~addr:(input "wa" 4) ~data:(input "wd" 8);
  let rd = mem_read_async m ~addr:(input "ra" 4) in
  let c = Circuit.create_exn ~name:"ram" [ ("rd", rd) ] in
  let sim = Cyclesim.create c in
  set sim "we" ~width:1 1;
  set sim "wa" ~width:4 3;
  set sim "wd" ~width:8 99;
  set sim "ra" ~width:4 3;
  Cyclesim.cycle sim;
  (* Write commits at the edge; during the same cycle the old value is
     read (read-before-write). *)
  check_int "read old value during write" 0 (out_int sim "rd");
  set sim "we" ~width:1 0;
  Cyclesim.cycle sim;
  check_int "read new value" 99 (out_int sim "rd")

let test_memory_sync () =
  let m = create_memory ~size:16 ~width:8 () in
  mem_write_port m ~enable:(input "we" 1) ~addr:(input "wa" 4) ~data:(input "wd" 8);
  let rd = mem_read_sync m ~addr:(input "ra" 4) () in
  let c = Circuit.create_exn ~name:"bram" [ ("rd", rd) ] in
  let sim = Cyclesim.create c in
  set sim "we" ~width:1 1;
  set sim "wa" ~width:4 5;
  set sim "wd" ~width:8 77;
  set sim "ra" ~width:4 5;
  Cyclesim.cycle sim;
  set sim "we" ~width:1 0;
  (* The sync read registered the pre-write value (read-first). *)
  Cyclesim.settle sim;
  check_int "sync read lags" 0 (out_int sim "rd");
  Cyclesim.cycle sim;
  Cyclesim.settle sim;
  check_int "sync read returns written" 77 (out_int sim "rd")

let test_shift_register () =
  let d = input "d" 1 in
  let s1 = reg d in
  let s2 = reg s1 in
  let s3 = reg s2 in
  let c = Circuit.create_exn ~name:"shift" [ ("q", s3) ] in
  let sim = Cyclesim.create c in
  let feed bits =
    List.map
      (fun b ->
        set sim "d" ~width:1 b;
        Cyclesim.cycle sim;
        Cyclesim.settle sim;
        out_int sim "q")
      bits
  in
  let outs = feed [ 1; 0; 1; 1; 0; 0 ] in
  Alcotest.(check (list int)) "delayed by 3" [ 0; 0; 1; 0; 1; 1 ] outs

let test_peek_and_vcd () =
  let a = input "a" 4 in
  let doubled = (a +: a) -- "doubled" in
  let c = Circuit.create_exn ~name:"peek" [ ("y", doubled) ] in
  let sim = Cyclesim.create c in
  let vcd = Vcd.create sim in
  set sim "a" ~width:4 3;
  Cyclesim.cycle sim;
  Vcd.sample vcd;
  check_int "peek" 6 (Bits.to_int (Cyclesim.peek sim doubled));
  set sim "a" ~width:4 5;
  Cyclesim.cycle sim;
  Vcd.sample vcd;
  let text = Vcd.to_string vcd in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "vcd has var" true (contains "doubled" text);
  Alcotest.(check bool) "vcd has change" true (contains "b1010" text)

let test_vcd_structure () =
  (* The dump must declare every tracked var once, open with a header,
     and emit strictly increasing timestamps. *)
  let a = input "a" 4 in
  let q = reg a -- "q_reg" in
  let c = Circuit.create_exn ~name:"vcd" [ ("q", q) ] in
  let sim = Cyclesim.create c in
  let vcd = Vcd.create sim in
  for i = 1 to 5 do
    set sim "a" ~width:4 i;
    Cyclesim.cycle sim;
    Vcd.sample vcd
  done;
  let text = Vcd.to_string vcd in
  let lines = String.split_on_char '\n' text in
  let timestamps =
    List.filter_map
      (fun l ->
        if String.length l > 1 && l.[0] = '#' then
          int_of_string_opt (String.sub l 1 (String.length l - 1))
        else None)
      lines
  in
  check_int "five samples" 5 (List.length timestamps);
  Alcotest.(check (list int)) "monotonic" [ 0; 1; 2; 3; 4 ] timestamps;
  let count needle =
    List.length
      (List.filter
         (fun l ->
           String.length l >= String.length needle
           && String.sub l 0 (String.length needle) = needle)
         lines)
  in
  check_int "one enddefinitions" 1 (count "$enddefinitions");
  Alcotest.(check bool) "vars declared" true (count "$var wire" >= 2)

(* Regression: the dump must be valid VCD — a $dumpvars initial-value
   block right after the header, no #time markers for cycles where
   nothing changed, and identifier-safe reference names. *)
let test_vcd_validity () =
  let a = input "a" 1 in
  (* A name full of characters VCD viewers reject. *)
  let odd = (~:a) -- "3 bad:name!" in
  let c = Circuit.create_exn ~name:"vcd v" [ ("y", odd) ] in
  let sim = Cyclesim.create c in
  let vcd = Vcd.create sim in
  set sim "a" ~width:1 0;
  Cyclesim.cycle sim;
  Vcd.sample vcd;
  (* Three cycles with the input held: no changes, so no timestamps. *)
  for _ = 1 to 3 do
    Cyclesim.cycle sim;
    Vcd.sample vcd
  done;
  set sim "a" ~width:1 1;
  Cyclesim.cycle sim;
  Vcd.sample vcd;
  let text = Vcd.to_string vcd in
  let lines = String.split_on_char '\n' text in
  let starts p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let index_of p =
    let rec go i = function
      | [] -> -1
      | l :: rest -> if starts p l then i else go (i + 1) rest
    in
    go 0 lines
  in
  (* $dumpvars initial block sits after $enddefinitions at time #0. *)
  Alcotest.(check bool) "has #0" true (index_of "#0" >= 0);
  Alcotest.(check bool) "dumpvars after enddefinitions" true
    (index_of "$enddefinitions" < index_of "#0"
    && index_of "#0" + 1 = index_of "$dumpvars");
  (* Every tracked signal has an initial value inside the block. *)
  let dump_start = index_of "$dumpvars" in
  let block_end =
    let rec go i = function
      | [] -> -1
      | l :: rest -> if l = "$end" && i > dump_start then i else go (i + 1) rest
    in
    go 0 lines
  in
  let initial_values = block_end - dump_start - 1 in
  Alcotest.(check bool) "initial value per var" true (initial_values >= 2);
  (* Idle cycles emit no timestamps: only #0 and the final change. *)
  let timestamps = List.filter (fun l -> starts "#" l) lines in
  Alcotest.(check (list string)) "no empty timesteps" [ "#0"; "#4" ] timestamps;
  (* Sanitized reference names: no spaces/colons/bangs, no leading digit. *)
  List.iter
    (fun l ->
      if starts "$var" l then begin
        let name =
          match String.split_on_char ' ' l with
          | _ :: _ :: _ :: _ :: name :: _ -> name
          | _ -> Alcotest.fail ("malformed $var line: " ^ l)
        in
        String.iter
          (fun ch ->
            let ok =
              (ch >= 'a' && ch <= 'z')
              || (ch >= 'A' && ch <= 'Z')
              || (ch >= '0' && ch <= '9')
              || ch = '_' || ch = '$'
            in
            Alcotest.(check bool) ("identifier char in " ^ name) true ok)
          name;
        Alcotest.(check bool) ("no leading digit in " ^ name) false
          (name.[0] >= '0' && name.[0] <= '9')
      end)
    lines;
  (* The scope name is sanitized too ("vcd v" has a space). *)
  Alcotest.(check bool) "scope sanitized" true
    (List.exists (starts "$scope module vcd_v") lines)

let test_circuit_port_errors () =
  let a = input "a" 4 in
  let c = Circuit.create_exn ~name:"p" [ ("y", ~:a) ] in
  let sim = Cyclesim.create c in
  Alcotest.check_raises "unknown input"
    (Invalid_argument "Cyclesim: no input port named ghost") (fun () ->
      ignore (Cyclesim.in_port sim "ghost"));
  Alcotest.check_raises "unknown output"
    (Invalid_argument "Cyclesim: no output port named ghost") (fun () ->
      ignore (Cyclesim.out_port sim "ghost"));
  Alcotest.check_raises "find_input"
    (Invalid_argument "Circuit: no input port named ghost") (fun () ->
      ignore (Circuit.find_input c "ghost"));
  Alcotest.check_raises "find_output"
    (Invalid_argument "Circuit: no output port named ghost") (fun () ->
      ignore (Circuit.find_output c "ghost"))

let test_wide_datapath () =
  let a = input "a" 100 in
  let c = Circuit.create_exn ~name:"wide" [ ("y", a +: a) ] in
  let sim = Cyclesim.create c in
  Cyclesim.in_port sim "a" := Bits.concat_msb [ Bits.one 50; Bits.zero 50 ];
  Cyclesim.cycle sim;
  let expected = Bits.concat_msb [ Bits.of_int ~width:50 2; Bits.zero 50 ] in
  Alcotest.(check bool) "wide add" true
    (Bits.equal expected !(Cyclesim.out_port sim "y"))

let test_input_width_check () =
  let a = input "a" 8 in
  let c = Circuit.create_exn ~name:"w" [ ("y", ~:a) ] in
  let sim = Cyclesim.create c in
  Cyclesim.in_port sim "a" := Bits.zero 4;
  Alcotest.check_raises "wrong input width"
    (Invalid_argument "Cyclesim: input a driven with width 4, expected 8")
    (fun () -> Cyclesim.cycle sim)

let test_out_port_initial_width () =
  (* Regression: output refs used to be initialized as [Bits.zero 1]
     regardless of the port's declared width, so [out_port] before the
     first settle returned a wrong-width value. *)
  List.iter
    (fun engine ->
      let a = input "a" 12 in
      let c = Circuit.create_exn ~name:"w" [ ("y", a +: a) ] in
      let sim = Cyclesim.create ~engine c in
      let v = !(Cyclesim.out_port sim "y") in
      check_int "initial out_port width" 12 (Bits.width v);
      Alcotest.(check bool) "initial out_port zeros" true
        (Bits.equal v (Bits.zero 12)))
    [ Cyclesim.Reference; Cyclesim.Compiled ]

(* The width comes from the instance's own input table, on every
   engine and on a lane of a batch, with one error text. *)
let test_drive_width_check () =
  let a = input "a" 8 in
  let c = Circuit.create_exn ~name:"d" [ ("y", ~:a) ] in
  List.iter
    (fun (engine, sim) ->
      Alcotest.check_raises (engine ^ ": wrong width rejected at the call site")
        (Invalid_argument "Cyclesim.drive: port a expects width 8, got 4")
        (fun () -> Cyclesim.drive sim "a" (Bits.zero 4));
      Alcotest.check_raises (engine ^ ": unknown port")
        (Invalid_argument "Cyclesim: no input port named ghost") (fun () ->
          Cyclesim.drive sim "ghost" (Bits.zero 1));
      Alcotest.check_raises (engine ^ ": bind checks like drive")
        (Invalid_argument "Cyclesim.drive: port a expects width 8, got 1")
        (fun () -> ignore (Cyclesim.bind_input sim "a" ~width:1));
      Cyclesim.drive sim "a" (Bits.of_int ~width:8 0xF0);
      Cyclesim.cycle sim;
      check_int (engine ^ ": driven value simulates") 0x0F (out_int sim "y");
      Cyclesim.bind_input sim "a" ~width:8 := Bits.of_int ~width:8 0x0F;
      Cyclesim.cycle sim;
      check_int (engine ^ ": bound ref drives") 0xF0 (out_int sim "y"))
    [
      ("reference", Cyclesim.create ~engine:Cyclesim.Reference c);
      ("compiled", Cyclesim.create ~engine:Cyclesim.Compiled c);
      ( "lane 2 of 3",
        Cyclesim.lane_view
          (Cyclesim.instantiate_batched ~lanes:3 (Cyclesim.plan c))
          2 );
    ]

(* The video harness binds its ports once, at [create], and rejects a
   port of the wrong width there with [Cyclesim.drive]'s error. *)
let test_harness_binds_ports () =
  let px_valid = input "px_valid" 1 and px_data = input "px_data" 4 in
  let out_ready = input "out_ready" 2 in
  let c =
    Circuit.create_exn ~name:"pass"
      [
        ("px_ready", select out_ready ~high:0 ~low:0);
        ("out_valid", px_valid);
        ("out_data", px_data);
      ]
  in
  let sim = Cyclesim.create c in
  let frame depth = Hwpat_video.Frame.create ~width:2 ~height:2 ~depth in
  Alcotest.check_raises "source data port"
    (Invalid_argument "Cyclesim.drive: port px_data expects width 4, got 8")
    (fun () -> ignore (Hwpat_video.Video_source.create sim (frame 8)));
  Alcotest.check_raises "sink ready port"
    (Invalid_argument "Cyclesim.drive: port out_ready expects width 2, got 1")
    (fun () -> ignore (Hwpat_video.Vga_sink.create sim ()));
  Alcotest.check_raises "missing port"
    (Invalid_argument "Cyclesim: no output port named ghost") (fun () ->
      ignore (Hwpat_video.Vga_sink.create ~valid_port:"ghost" ~ready_port:"" sim ()));
  ignore (Hwpat_video.Video_source.create sim (frame 4))

let test_activity_skipping () =
  let counter =
    reg_fb ~width:8 ~clear:(input "clr" 1) ~enable:(input "en" 1) (fun q ->
        q +: one 8)
  in
  let c = Circuit.create_exn ~name:"skip" [ ("q", counter) ] in
  let sim = Cyclesim.create ~engine:Cyclesim.Compiled c in
  set sim "clr" ~width:1 0;
  set sim "en" ~width:1 1;
  for _ = 1 to 4 do
    Cyclesim.cycle sim
  done;
  set sim "en" ~width:1 0;
  (* One cycle to absorb the enable change; after that neither inputs
     nor state change, so no combinational cone has a dirty source. *)
  Cyclesim.cycle sim;
  let before = (Cyclesim.activity sim).Cyclesim.node_evals in
  for _ = 1 to 10 do
    Cyclesim.cycle sim
  done;
  let act = Cyclesim.activity sim in
  check_int "stable cycles evaluate no nodes" 0 (act.Cyclesim.node_evals - before);
  Cyclesim.settle sim;
  check_int "state preserved across skipped cycles" 4 (out_int sim "q");
  set sim "en" ~width:1 1;
  Cyclesim.cycle sim;
  Cyclesim.settle sim;
  check_int "wakes up on input change" 5 (out_int sim "q")

let test_force_fans_out_compiled () =
  let a = input "a" 8 in
  let mid = (a +: one 8) -- "mid" in
  let c = Circuit.create_exn ~name:"force" [ ("y", mid +: one 8) ] in
  let sim = Cyclesim.create ~engine:Cyclesim.Compiled c in
  set sim "a" ~width:8 10;
  Cyclesim.cycle sim;
  check_int "unforced" 12 (out_int sim "y");
  Cyclesim.cycle sim;
  (* The forced node's fan-out must be marked dirty even though no
     input changed. *)
  Cyclesim.force sim mid (Bits.of_int ~width:8 100);
  Cyclesim.settle sim;
  check_int "forced value observed" 100 (Bits.to_int (Cyclesim.peek sim mid));
  check_int "force fans out" 101 (out_int sim "y");
  Cyclesim.release sim mid;
  Cyclesim.settle sim;
  check_int "release recomputes" 12 (out_int sim "y")

let () =
  Alcotest.run "cyclesim"
    [
      ( "cyclesim",
        [
          Alcotest.test_case "combinational ops" `Quick test_combinational;
          Alcotest.test_case "mux" `Quick test_mux;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "register init/reset" `Quick test_reg_init;
          Alcotest.test_case "async memory" `Quick test_memory_async;
          Alcotest.test_case "sync memory" `Quick test_memory_sync;
          Alcotest.test_case "shift register" `Quick test_shift_register;
          Alcotest.test_case "peek and vcd" `Quick test_peek_and_vcd;
          Alcotest.test_case "wide datapath" `Quick test_wide_datapath;
          Alcotest.test_case "vcd structure" `Quick test_vcd_structure;
          Alcotest.test_case "vcd validity (dumpvars, empty steps, labels)"
            `Quick test_vcd_validity;
          Alcotest.test_case "port errors" `Quick test_circuit_port_errors;
          Alcotest.test_case "input width check" `Quick test_input_width_check;
          Alcotest.test_case "out_port initial width" `Quick
            test_out_port_initial_width;
          Alcotest.test_case "drive width check" `Quick test_drive_width_check;
          Alcotest.test_case "video harness binds ports at create" `Quick
            test_harness_binds_ports;
          Alcotest.test_case "activity skipping" `Quick test_activity_skipping;
          Alcotest.test_case "force fans out (compiled)" `Quick
            test_force_fans_out_compiled;
        ] );
    ]
