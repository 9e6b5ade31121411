(* fault_campaign: the [hwpat faultsim] path on the bit-parallel engine.
   Seeded campaigns on the protected SRAM design run through
   [Faultsim.run_campaign ~lanes:64] — Simbatch, the plane-batched
   video harness and Parallel work-stealing — and bypass the scalar
   kernel and the scalar sink that sim_video measures. *)

open Hwpat_rtl
open Hwpat_core
open Common
module Stats = Perfbench.Stats

let design = "saa2vga_sram_protected"
let lanes = 64
let frame_side = 16

(* Four 64-lane batches per campaign. *)
let faults = 256

(* Faults of the first campaign re-run on the scalar engine to check
   the batched classifications. *)
let sample = 32

(* One domain: with two, the run-to-run medians moved with the host's
   load by up to 1.25x between sets of runs (see README). *)
let jobs = 1
let build = Faultsim.find_design design

(* Set-up from an empty minor heap, timed by layer and, as a whole, in
   CPU time, as in Sim_video. *)
let setup () =
  Gc.minor ();
  let c0 = process_cpu_s () in
  let circuit, t_build = time build in
  let plan, t_plan = time (fun () -> Cyclesim.plan circuit) in
  let _, t_inst = time (fun () -> Cyclesim.instantiate_batched ~lanes plan) in
  (plan, (t_build, t_plan, t_inst, process_cpu_s () -. c0))

(* [lanes:None] runs the scalar engine. *)
let campaign ?trace ?metrics ?(lanes = Some lanes) ?(faults = faults) ~plan
    seed k =
  Faultsim.run_campaign ?trace ?metrics ~plan ?lanes ~jobs
    ~seed:(derive seed k) ~faults ~frame_width:frame_side
    ~frame_height:frame_side ~build ~design ()

let unfinished s = Faultsim.count s Faultsim.Unfinished

let run_campaigns ?trace ?metrics ?min_calls ~plan seed seconds =
  let ops = ref [] in
  let n =
    repeat_for ?min_calls seconds (fun k ->
        ops := clocked (fun () -> campaign ?trace ?metrics ~plan seed k) :: !ops)
  in
  (n, List.rev !ops)

(* The batched summary of the first [sample] faults must be
   byte-identical to the scalar engine's on the same faults. *)
let scalar_mismatches ~plan seed (first : Faultsim.summary) =
  let scalar = campaign ~lanes:None ~faults:sample ~plan seed 0 in
  let prefix =
    { first with Faultsim.results = List.filteri (fun i _ -> i < sample) first.Faultsim.results }
  in
  if Faultsim.summary_to_json scalar = Faultsim.summary_to_json prefix then 0
  else
    let a = scalar.Faultsim.results and b = prefix.Faultsim.results in
    if List.compare_lengths a b <> 0 then sample
    else max 1 (List.fold_left2 (fun n x y -> if x = y then n else n + 1) 0 a b)

(* Share of the lane-cycles the batches ran that did useful work: each
   batch runs as long as its longest lane. *)
let lane_occupancy summaries =
  let used = ref 0 and run = ref 0 in
  List.iter
    (fun (s : Faultsim.summary) ->
      let cycles = Array.of_list (List.map (fun r -> r.Faultsim.cycles) s.Faultsim.results) in
      Array.iteri
        (fun i c ->
          used := !used + c;
          if i mod lanes = 0 then
            let batch = Array.sub cycles i (min lanes (Array.length cycles - i)) in
            run := !run + (lanes * Array.fold_left max 0 batch))
        cycles)
    summaries;
  float_of_int !used /. float_of_int !run

(* Faults classified per CPU second in the median campaign. *)
let rate ops = float_of_int faults /. Stats.median (List.map (fun (_, c) -> c.cpu) ops)

let run ~seed ~seconds ~trace =
  (* Twenty-one set-ups; each set-up figure is the median over them.
     Only the first one's result is kept, and the heap is compacted
     before anything is timed, so every run starts from the same heap. *)
  let plan, t0 = setup () in
  let reps = t0 :: List.init 20 (fun _ -> snd (setup ())) in
  Gc.compact ();
  let med f = Stats.median (List.map f reps) in
  if not trace then begin
    let n, ops = run_campaigns ~plan seed seconds in
    let summaries = List.map fst ops in
    let mismatches = scalar_mismatches ~plan seed (List.hd summaries) in
    let lat = List.map (fun (_, c) -> c.wall *. 1000.0) ops in
    {
      attempted = (n * faults) + sample;
      failed =
        List.fold_left (fun a s -> a + unfinished s) 0 summaries + mismatches;
      e2e =
        [
          metric "setup_s" "s" (med (fun (_, _, _, cpu) -> cpu));
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "work_per_s" "1/s" (rate ops);
        ];
      layers = [];
      notes =
        [
          Printf.sprintf "%s: %d campaigns of %d faults, %dx%d frame, lanes %d, jobs %d"
            design n faults frame_side frame_side lanes jobs;
          Printf.sprintf
            "scalar engine on the first %d faults: %d differing classifications"
            sample mismatches;
          "setup_s = CPU seconds of one set-up, median of 21; work_per_s = \
           faults classified per CPU second in the median campaign; latency \
           = one campaign";
          tail_note "campaigns" lat;
        ];
    }
  end
  else begin
    (* Untraced campaigns, then 25 traced ones: a hundred batches, so
       the batch-time p90 leaves ten beyond it. *)
    let n0, untraced = run_campaigns ~min_calls:20 ~plan seed (seconds /. 2.0) in
    let tr = Hwpat_obs.Trace.create () in
    let metrics = Hwpat_obs.Metrics.create () in
    let words0 = (Gc.quick_stat ()).Gc.minor_words in
    let traced =
      List.init 25 (fun k ->
          Hwpat_obs.Trace.span tr "bench:campaign" (fun () ->
              clocked (fun () -> campaign ~trace:tr ~metrics ~plan seed k)))
    in
    let words = (Gc.quick_stat ()).Gc.minor_words -. words0 in
    let summaries = List.map fst traced in
    let spans = Spans.of_trace tr in
    let roots = Spans.named "bench:campaign" spans in
    let batches = List.filter (Spans.has_prefix "batch#") spans in
    let baselines = Spans.named "baseline" spans in
    let wall = Spans.total roots in
    let n_traced = float_of_int (List.length traced) in
    let unattributed =
      List.fold_left
        (fun a r ->
          a +. Stats.self_time ~span:(Spans.interval r)
                 (List.map Spans.interval (Spans.within r spans)))
        0.0 roots
    in
    let batch_ms = List.map (fun s -> Spans.duration s *. 1000.0) batches in
    let count o =
      (* Outcome totals over the first eight campaigns: fixed inputs,
         so these counts are exact for a seed. *)
      float_of_int
        (List.fold_left ( + ) 0
           (List.filteri (fun i _ -> i < 8)
              (List.map (fun s -> Faultsim.count s o) summaries)))
    in
    {
      attempted = (n0 + List.length traced) * faults;
      failed =
        List.fold_left (fun a s -> a + unfinished s) 0
          (summaries @ List.map fst untraced);
      e2e = [];
      layers =
        [
          metric "elab.build_s" "s" (med (fun (b, _, _, _) -> b));
          metric "rtl.plan_s" "s" (med (fun (_, p, _, _) -> p));
          metric "rtl.instantiate_s" "s" (med (fun (_, _, i, _) -> i));
          metric "faultsim.baseline_s" "s" (Spans.total baselines /. n_traced);
          metric "faultsim.batch_s" "s" (Spans.total batches /. n_traced);
          metric "faultsim.batch_ms_p50" "ms" (Stats.percentile batch_ms 50.0);
          metric "faultsim.batch_ms_p90" "ms" (Stats.percentile batch_ms 90.0);
          metric "batch.lane_occupancy" "ratio" (lane_occupancy summaries);
          metric "gc.minor_words_per_fault" "words"
            (words /. (n_traced *. float_of_int faults));
          metric "parallel.idle_frac" "ratio"
            (1.0
            -. (Spans.total batches +. Spans.total baselines) /. (float_of_int jobs *. wall));
          metric "faultsim.detected" "count" (count Faultsim.Detected);
          metric "faultsim.masked" "count" (count Faultsim.Masked);
          metric "faultsim.silent" "count" (count Faultsim.Silent);
          metric "faultsim.unfinished" "count" (count Faultsim.Unfinished);
          metric "supervise.retries" "count"
            (float_of_int (Hwpat_obs.Metrics.counter_value metrics "supervise.retries"));
          metric "supervise.timeouts" "count"
            (float_of_int (Hwpat_obs.Metrics.counter_value metrics "supervise.timeouts"));
        ]
        @ tail_layers (List.map (fun (_, c) -> c.wall *. 1000.0) untraced)
        @ [
          metric "unattributed_pct" "%" (100.0 *. unattributed /. wall);
          metric "trace_overhead_pct" "%" (100.0 *. ((rate untraced /. rate traced) -. 1.0));
        ];
      notes =
        [
          Printf.sprintf "%d traced campaigns, %d batches" (List.length traced)
            (List.length batches);
        ];
    }
  end
