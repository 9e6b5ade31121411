(* The bit-parallel batched simulation engine ({!Hwpat_rtl.Simbatch})
   and its consumers:
   - lane isolation: a fault (force, state poke) applied to one lane
     must not perturb any other lane, at any cycle;
   - batched fault campaigns are byte-identical to the scalar engine's
     at any lane count (1, 3, 64) and any job count;
   - checkpoint/resume composes with batching, including a journal
     written by a *scalar* campaign resumed by a batched one;
   - a zero-length checkpoint resumed is a fresh run with an explicit
     note, not a config mismatch;
   - {!Hwpat_rtl.Simbatch.changed_lanes} reports exactly the lanes
     whose state, inputs or forces moved, and a batched campaign that
     retires deadlocked lanes at their fixed point still matches the
     scalar campaign byte for byte;
   - {!Hwpat_core.Characterize.selfcheck} pins the batched engine to
     the naive oracle on a real container harness;
   - the API rejects out-of-range lanes and reference-engine plans. *)

open Hwpat_rtl
open Hwpat_rtl.Signal
open Hwpat_core

(* A small design with every stateful element the batched engine
   treats specially: a register with enable, an async and a sync
   memory read port, and combinational logic over all of them. *)
let build_small () =
  let d = input "d" 8 and en = input "en" 1 in
  let acc = reg_fb ~width:8 ~enable:en (fun q -> q +: d) in
  let m = create_memory ~size:16 ~width:8 () in
  mem_write_port m ~enable:en ~addr:(select acc ~high:3 ~low:0) ~data:d;
  let rd_sync = mem_read_sync m ~addr:(select d ~high:3 ~low:0) () in
  let rd_async = mem_read_async m ~addr:(select d ~high:3 ~low:0) in
  Circuit.create_exn ~name:"batch_small"
    [
      ("acc", acc);
      ("rd_sync", rd_sync);
      ("rd_async", rd_async);
      ("sum", acc +: d);
    ]

(* Drive lane [l] of the batch and its scalar oracle with the same
   per-lane random stimulus; any divergence on any output port fails.
   Mid-run, lane 1 (and only lane 1) is forced and state-poked — with
   the identical fault applied to lane 1's oracle, so every lane must
   *still* match its oracle: the fault lands where aimed and leaks
   nowhere else. *)
let test_lane_isolation () =
  let circuit = build_small () in
  let lanes = 4 in
  let batch = Cyclesim.instantiate_batched ~lanes (Cyclesim.plan circuit) in
  let views = Array.init lanes (Cyclesim.lane_view batch) in
  let oracles = Array.init lanes (fun _ -> Cyclesim.create circuit) in
  let rngs = Array.init lanes (fun l -> Random.State.make [| 0xb5a + l |]) in
  let sum_signal = List.assoc "sum" (Circuit.outputs circuit) in
  let acc_reg = List.hd (Circuit.registers circuit) in
  let compare_all cycle =
    Array.iteri
      (fun l view ->
        List.iter
          (fun (name, _) ->
            let got = !(Cyclesim.out_port view name) in
            let want = !(Cyclesim.out_port oracles.(l) name) in
            if not (Bits.equal got want) then
              Alcotest.failf "lane %d cycle %d port %s: batched %s, scalar %s"
                l cycle name (Bits.to_string got) (Bits.to_string want))
          (Circuit.outputs circuit))
      views
  in
  for cycle = 1 to 60 do
    for l = 0 to lanes - 1 do
      let d = Bits.of_int ~width:8 (Random.State.int rngs.(l) 256) in
      let en = Bits.of_int ~width:1 (Random.State.int rngs.(l) 2) in
      Cyclesim.drive views.(l) "d" d;
      Cyclesim.drive oracles.(l) "d" d;
      Cyclesim.drive views.(l) "en" en;
      Cyclesim.drive oracles.(l) "en" en
    done;
    (* The fault window: a stuck-at on [sum] and a register bit-flip,
       in lane 1 only. *)
    if cycle = 20 then begin
      let stuck = Bits.of_int ~width:8 0xa5 in
      Cyclesim.force views.(1) sum_signal stuck;
      Cyclesim.force oracles.(1) sum_signal stuck
    end;
    if cycle = 25 then begin
      let flip sim =
        Cyclesim.poke_state sim acc_reg
          (Bits.logxor (Cyclesim.peek_state sim acc_reg)
             (Bits.of_int ~width:8 0x40))
      in
      flip views.(1);
      flip oracles.(1)
    end;
    if cycle = 40 then begin
      Cyclesim.release views.(1) sum_signal;
      Cyclesim.release oracles.(1) sum_signal
    end;
    Cyclesim.cycle views.(0);
    Array.iter Cyclesim.cycle oracles;
    compare_all cycle;
    (* While the force is in, lane 1 must actually show it... *)
    if cycle >= 20 && cycle < 40 then
      Alcotest.(check string)
        "lane 1 sum is forced" "10100101"
        (Bits.to_string !(Cyclesim.out_port views.(1) "sum"))
  done;
  (* ...and the healthy lanes never did: their oracles were never
     faulted, so compare_all already proved isolation every cycle. *)
  Alcotest.(check bool) "batch ran" true (Cyclesim.cycle_count views.(0) = 60)

(* --- Quiescence reporting -------------------------------------------------- *)

(* One lane per way of moving: a counter with enable, an input feeding
   only logic, a forced node, and a memory written through a port whose
   enable arrives one register later than its input. *)
let build_quiet () =
  let en = input "en" 1 and x = input "x" 8 in
  let we = input "we" 1 and wa = input "wa" 4 and wd = input "wd" 8 in
  let count = reg_fb ~width:8 ~enable:en (fun q -> q +: one 8) in
  let m = create_memory ~size:16 ~width:8 () in
  mem_write_port m ~enable:(reg we) ~addr:wa ~data:wd;
  let probe = x +: one 8 in
  ( Circuit.create_exn ~name:"batch_quiet"
      [ ("count", count); ("probe", probe); ("rd", mem_read_async m ~addr:wa) ],
    probe,
    m )

let test_changed_lanes () =
  let circuit, probe, memory = build_quiet () in
  let batch = Cyclesim.instantiate_batched ~lanes:5 (Cyclesim.plan circuit) in
  let drive name ~plane ~lane v =
    Simbatch.write_input_plane batch
      (Simbatch.input_index batch name)
      ~plane ~mask:(Int64.shift_left 1L lane)
      ~bits:(if v then -1L else 0L)
  in
  let moved = Array.make 5 [] in
  for c = 0 to 19 do
    (* lane 0 is never driven: all-zero inputs, frozen state *)
    drive "en" ~plane:0 ~lane:1 true;
    drive "x" ~plane:0 ~lane:2 (c land 1 = 1);
    if c = 10 then Simbatch.force batch ~lane:3 probe (Bits.ones 8);
    if c = 14 then Simbatch.release batch ~lane:3 probe;
    (* lane 4 holds address 1 and data 8 from the start; its write
       enable rises at cycle 10 and reaches the port, through the
       register, at cycle 11 — a cycle in which only memory moves. *)
    drive "wa" ~plane:0 ~lane:4 true;
    drive "wd" ~plane:3 ~lane:4 true;
    drive "we" ~plane:0 ~lane:4 (c >= 10);
    Simbatch.cycle batch;
    let changed = Simbatch.changed_lanes batch in
    for l = 0 to 4 do
      if Int64.logand (Int64.shift_right_logical changed l) 1L = 1L then
        moved.(l) <- c :: moved.(l)
    done
  done;
  (* Cycles 0 and 1 settle the power-on drives; look from cycle 2 on. *)
  let from2 l = List.rev (List.filter (fun c -> c >= 2) moved.(l)) in
  let every = List.init 18 (fun c -> c + 2) in
  let check_cycles = Alcotest.(check (list int)) in
  check_cycles "frozen lane reads quiet" [] (from2 0);
  check_cycles "running counter moves every cycle" every (from2 1);
  check_cycles "input plane change moves every cycle" every (from2 2);
  check_cycles "force and release move" [ 10; 14 ] (from2 3);
  check_cycles "enable edge, then the memory write, move" [ 10; 11 ] (from2 4);
  Alcotest.(check int) "the write landed" 8
    (Bits.to_int (Simbatch.memory_contents batch ~lane:4 memory).(1))

(* --- Campaign byte-identity ---------------------------------------------- *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

(* The compact bytes the daemon would send: what "byte-identical" means. *)
let summary_json s = Hwpat_base.Json.to_string (Faultsim.summary_to_json s)

let campaign ?lanes ?checkpoint ?(resume = false) ~jobs () =
  Faultsim.run_campaign ?lanes ?checkpoint ~resume ~jobs ~seed:5 ~faults:10
    ~frame_width:6 ~frame_height:6
    ~build:(Faultsim.find_design "saa2vga_sram_pattern")
    ~design:"saa2vga_sram_pattern" ()

let test_lane_count_byte_identity () =
  let reference = summary_json (campaign ~jobs:2 ()) in
  List.iter
    (fun lanes ->
      Alcotest.(check string)
        (Printf.sprintf "lanes:%d = scalar" lanes)
        reference
        (summary_json (campaign ~lanes ~jobs:2 ())))
    [ 1; 3; 64 ]

(* With 10 faults and 3 lanes the campaign is 4 batches — enough to
   shard unevenly across 4 domains. *)
let test_batched_jobs_deterministic () =
  let run jobs = summary_json (campaign ~lanes:3 ~jobs ()) in
  Alcotest.(check string) "batched jobs:1 = jobs:4" (run 1) (run 4)

(* A hang-heavy campaign on the protected design: seed 15 draws 11
   faults that deadlock the pipeline, and each 64-fault batch holds at
   least one of them and at least one monitor-detected fault — so the
   batched runs retire lanes at their fixed point while neighbouring
   lanes keep running and recording violations. *)
let hang_campaign ?metrics ?lanes ?checkpoint ?(resume = false) ~jobs () =
  Faultsim.run_campaign ?metrics ?lanes ?checkpoint ~resume ~jobs ~seed:15
    ~faults:96 ~frame_width:16 ~frame_height:16
    ~build:(Faultsim.find_design "saa2vga_sram_protected")
    ~design:"saa2vga_sram_protected" ()

let hang_reference = lazy (hang_campaign ~jobs:2 ())
let hang_budget (s : Faultsim.summary) = (4 * s.Faultsim.baseline_cycles) + 64

let test_hang_heavy_byte_identity () =
  let scalar = Lazy.force hang_reference in
  let results = Array.of_list scalar.Faultsim.results in
  List.iter
    (fun (lo, hi) ->
      let any p =
        List.exists (fun k -> p results.(k)) (List.init (hi - lo + 1) (( + ) lo))
      in
      Alcotest.(check bool)
        (Printf.sprintf "faults %d-%d: one runs to the budget" lo hi)
        true
        (any (fun r ->
             (not r.Faultsim.completed) && r.Faultsim.cycles = hang_budget scalar));
      Alcotest.(check bool)
        (Printf.sprintf "faults %d-%d: one is monitor-detected" lo hi)
        true
        (any (fun r -> r.Faultsim.detail <> None)))
    [ (0, 63); (64, 95) ];
  let reference = summary_json scalar in
  List.iter
    (fun lanes ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "lanes:%d jobs:%d = scalar" lanes jobs)
            reference
            (summary_json (hang_campaign ~lanes ~jobs ())))
        [ 1; 2 ])
    [ 1; 3; 64 ]

(* Retirement must actually fire: every batch would otherwise simulate
   to the budget, since each holds a deadlocked fault. *)
let test_hang_lanes_retired () =
  let scalar = Lazy.force hang_reference in
  let hung =
    List.length
      (List.filter
         (fun r -> r.Faultsim.cycles = hang_budget scalar)
         scalar.Faultsim.results)
  in
  let metrics = Hwpat_obs.Metrics.create () in
  ignore (hang_campaign ~metrics ~lanes:64 ~jobs:1 ());
  let retired =
    Hwpat_obs.Metrics.counter_value metrics "faultsim.retired_quiescent"
  in
  Alcotest.(check bool)
    (Printf.sprintf "retired %d of %d hung lanes" retired hung)
    true
    (retired > 0 && retired <= hung);
  let batch_cycles =
    Hwpat_obs.Metrics.counter_value metrics "faultsim.batch_cycles"
  in
  Alcotest.(check bool)
    (Printf.sprintf "2 batches simulated %d cycles, under 2 budgets of %d"
       batch_cycles (hang_budget scalar))
    true
    (batch_cycles > 0 && batch_cycles < 2 * hang_budget scalar)

(* A design whose sink captures a pixel every cycle while its state
   stays frozen (a register that never loads) and its source never
   advances: the lane's change bit is clear from the second cycle on,
   and only the sink's count moves.  Retiring on the change bit alone
   would record a hang; the lanes must run to completion. *)
let build_frozen_stream () =
  let px_data = input "px_data" 8 and px_valid = input "px_valid" 1 in
  let held = reg ~enable:gnd px_data in
  Circuit.create_exn ~name:"frozen_stream"
    [
      ("px_ready", px_valid &: bit held 0);
      ("out_valid", input "out_ready" 1);
      ("out_data", held);
    ]

let test_capturing_lane_not_retired () =
  let campaign ?lanes () =
    Faultsim.run_campaign ?lanes ~jobs:1 ~seed:3 ~faults:6 ~frame_width:4
      ~frame_height:4 ~build:build_frozen_stream ~design:"frozen_stream" ()
  in
  let scalar = campaign () in
  Alcotest.(check bool) "some fault completes" true
    (List.exists (fun r -> r.Faultsim.completed) scalar.Faultsim.results);
  Alcotest.(check string) "lanes:64 = scalar" (summary_json scalar)
    (summary_json (campaign ~lanes:64 ()))

(* A timed stuck-at can hold a lane at a fixed point for the whole of
   its window ("stuck rbuffer_sram_waits = 0 for 22 cycles" stalls the
   read buffer), and the lane resumes and completes once it is
   released: a lane whose injector still has a release scheduled is
   never retired. *)
let test_stuck_window_not_retired () =
  let campaign ?lanes () =
    Faultsim.run_campaign ?lanes ~jobs:1 ~seed:3 ~faults:10 ~frame_width:6
      ~frame_height:6
      ~build:(Faultsim.find_design "saa2vga_sram_pattern")
      ~design:"saa2vga_sram_pattern" ()
  in
  let scalar = campaign () in
  Alcotest.(check bool) "a timed stuck-at is masked" true
    (List.exists
       (fun r ->
         r.Faultsim.outcome = Faultsim.Masked
         && contains r.Faultsim.description "stuck"
         && contains r.Faultsim.description " cycles")
       scalar.Faultsim.results);
  Alcotest.(check string) "lanes:64 = scalar" (summary_json scalar)
    (summary_json (campaign ~lanes:64 ()))

(* --- Checkpoint/resume over the batched path ----------------------------- *)

let with_temp_path f =
  let path = Filename.temp_file "hwpat_test_batch" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A journal written by the *scalar* engine, torn mid-write, resumed
   by a *batched* campaign: the journal keys and the campaign config
   string exclude the engine and lane count, so the batched run
   replays the scalar verdicts and re-runs only the missing faults —
   byte-identically. *)
let test_scalar_journal_batched_resume () =
  let reference = summary_json (campaign ~jobs:2 ()) in
  with_temp_path @@ fun path ->
  ignore (campaign ~checkpoint:path ~jobs:2 ());
  let lines =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let acc = ref [] in
    (try
       while true do
         acc := input_line ic :: !acc
       done
     with End_of_file -> ());
    List.rev !acc
  in
  Alcotest.(check bool) "journal has records" true (List.length lines > 4);
  with_temp_path @@ fun partial ->
  let oc = open_out partial in
  List.iteri
    (fun i line ->
      if i <= 3 then (output_string oc line; output_char oc '\n'))
    lines;
  output_string oc "{\"key\": \"torn";
  close_out oc;
  let resumed = campaign ~checkpoint:partial ~resume:true ~lanes:4 ~jobs:2 () in
  Alcotest.(check string)
    "scalar journal + batched resume is byte-identical" reference
    (summary_json resumed)

(* The hang-heavy campaign, journaled at 64 lanes and cut where a kill
   part-way through the first batch's records would leave it (the
   header, 30 records and a torn line), then resumed at 3 lanes on 2
   domains: byte-identical to the scalar campaign. *)
let test_hang_heavy_killed_resume () =
  let reference = summary_json (Lazy.force hang_reference) in
  with_temp_path @@ fun path ->
  ignore (hang_campaign ~checkpoint:path ~lanes:64 ~jobs:1 ());
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "journal: header and 96 records" 97 (List.length lines);
  with_temp_path @@ fun partial ->
  Out_channel.with_open_text partial (fun oc ->
      List.iteri
        (fun i line ->
          if i <= 30 then (output_string oc line; output_char oc '\n'))
        lines;
      output_string oc "{\"key\": \"70:");
  let resumed =
    hang_campaign ~checkpoint:partial ~resume:true ~lanes:3 ~jobs:2 ()
  in
  Alcotest.(check string)
    "killed hang-heavy campaign, resumed, is byte-identical" reference
    (summary_json resumed)

(* A zero-length checkpoint (killed before the header flushed) resumed
   must behave exactly like a fresh run — with a note, never a
   Config_mismatch — on the batched path too. *)
let test_empty_checkpoint_fresh_run () =
  let reference = summary_json (campaign ~jobs:2 ()) in
  with_temp_path @@ fun path ->
  close_out (open_out path) (* truncate to zero length *);
  let resumed = campaign ~checkpoint:path ~resume:true ~lanes:4 ~jobs:2 () in
  Alcotest.(check string)
    "empty checkpoint resumes as a fresh run" reference
    (summary_json resumed)

let test_journal_note () =
  with_temp_path @@ fun path ->
  close_out (open_out path);
  let j = Journal.start ~path ~config:"c" ~resume:true in
  Journal.close j;
  Alcotest.(check int) "nothing replayed" 0 (Journal.resumed j);
  (match Journal.note j with
  | Some note ->
    Alcotest.(check bool)
      "note says the checkpoint was empty" true (contains note "was empty")
  | None -> Alcotest.fail "expected a note for an empty checkpoint");
  (* A fresh (non-resume) start and a resume of a *valid* journal get
     no note. *)
  with_temp_path @@ fun path2 ->
  let j2 = Journal.start ~path:path2 ~config:"c" ~resume:false in
  Journal.close j2;
  Alcotest.(check bool) "fresh start has no note" true (Journal.note j2 = None);
  let j3 = Journal.start ~path:path2 ~config:"c" ~resume:true in
  Journal.close j3;
  Alcotest.(check bool) "valid resume has no note" true (Journal.note j3 = None)

(* --- The Characterize consumer ------------------------------------------- *)

(* 64 random stimulus lanes on a queue-over-FIFO harness, naive engine
   as the per-lane oracle. The return value counts per-lane port
   comparisons: lanes * cycles * ports. *)
let test_characterize_selfcheck () =
  let point =
    {
      Characterize.container = "queue";
      target = "fifo";
      elem_width = 8;
      depth = 64;
      wait_states = 1;
    }
  in
  let checks = Characterize.selfcheck ~cycles:12 ~seed:3 point in
  Alcotest.(check int) "comparison count" (64 * 12 * 5) checks

(* --- API edges ----------------------------------------------------------- *)

let test_api_edges () =
  let circuit = build_small () in
  let plan = Cyclesim.plan circuit in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "lanes:0 rejected" true
    (raises (fun () -> Cyclesim.instantiate_batched ~lanes:0 plan));
  Alcotest.(check bool) "lanes:65 rejected" true
    (raises (fun () -> Cyclesim.instantiate_batched ~lanes:65 plan));
  Alcotest.(check bool) "reference plan rejected" true
    (raises (fun () ->
         Cyclesim.instantiate_batched
           (Cyclesim.plan ~engine:Cyclesim.Reference circuit)));
  let batch = Cyclesim.instantiate_batched ~lanes:2 plan in
  Alcotest.(check bool) "lane out of range rejected" true
    (raises (fun () -> Cyclesim.lane_view batch 2));
  Alcotest.(check bool) "negative lane rejected" true
    (raises (fun () -> Cyclesim.lane_view batch (-1)));
  Alcotest.(check bool) "faultsim rejects reference+lanes" true
    (raises (fun () ->
         Faultsim.run_campaign ~engine:Cyclesim.Reference ~lanes:4 ~jobs:1
           ~seed:5 ~faults:2 ~frame_width:6 ~frame_height:6
           ~build:(Faultsim.find_design "saa2vga_sram_pattern")
           ~design:"saa2vga_sram_pattern" ()))

let () =
  Alcotest.run "batchsim"
    [
      ( "engine",
        [
          Alcotest.test_case "faults stay in their lane" `Quick
            test_lane_isolation;
          Alcotest.test_case "api edges" `Quick test_api_edges;
          Alcotest.test_case "changed lanes: quiet only when nothing moved"
            `Quick test_changed_lanes;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "lanes 1/3/64 byte-identical to scalar" `Quick
            test_lane_count_byte_identity;
          Alcotest.test_case "batched jobs:1 = jobs:4" `Quick
            test_batched_jobs_deterministic;
          Alcotest.test_case "scalar journal, batched resume" `Quick
            test_scalar_journal_batched_resume;
          Alcotest.test_case "empty checkpoint resumes fresh" `Quick
            test_empty_checkpoint_fresh_run;
          Alcotest.test_case "empty checkpoint sets the journal note" `Quick
            test_journal_note;
          Alcotest.test_case "hang-heavy lanes 1/3/64 jobs 1/2 = scalar" `Quick
            test_hang_heavy_byte_identity;
          Alcotest.test_case "hang-heavy lanes retire at their fixed point"
            `Quick test_hang_lanes_retired;
          Alcotest.test_case "hang-heavy killed and resumed = scalar" `Quick
            test_hang_heavy_killed_resume;
          Alcotest.test_case "a capturing lane is never retired" `Quick
            test_capturing_lane_not_retired;
          Alcotest.test_case "a lane inside a stuck-at window is never retired"
            `Quick test_stuck_window_not_retired;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "64-lane selfcheck vs naive oracle" `Quick
            test_characterize_selfcheck;
        ] );
    ]
