(* sim_video: the [hwpat simulate] path.  The three Table 3 pattern
   designs stream seeded random frames through
   [Experiment.run_video_system] — the scalar compiled kernel plus the
   scalar video source and sink. *)

open Hwpat_rtl
open Hwpat_video
open Hwpat_core
open Common
module Stats = Perfbench.Stats

let designs = [| "saa2vga-fifo"; "saa2vga-sram"; "blur" |]

(* At 64x48 the sink's per-cycle pixel count and the kernel each take
   about half of saa2vga-sram's time, so a change to either shows. *)
let width = 64
let height = 48

type subject = {
  circuit : Circuit.t;
  flavor : Designs.flavor;
  sim : Cyclesim.t;
}

(* Set-up: elaborate, plan and instantiate each design, timed by layer
   and, as a whole, in CPU time.  It starts from an empty minor heap, so
   a collection owed by earlier work is not charged to it. *)
let setup () =
  Gc.minor ();
  let c0 = process_cpu_s () in
  let phases =
    Array.map
      (fun design ->
        let (circuit, flavor), t_build =
          time (fun () ->
              Designs.build ~design ~style:"pattern" ~frame_w:width
                ~frame_h:height)
        in
        let plan, t_plan = time (fun () -> Cyclesim.plan circuit) in
        let sim, t_inst = time (fun () -> Cyclesim.of_plan plan) in
        ({ circuit; flavor; sim }, (t_build, t_plan, t_inst)))
      designs
  in
  let cpu = process_cpu_s () -. c0 in
  let sum f = Array.fold_left (fun acc (_, t) -> acc +. f t) 0.0 phases in
  ( Array.map fst phases,
    ( sum (fun (b, _, _) -> b),
      sum (fun (_, p, _) -> p),
      sum (fun (_, _, i) -> i),
      cpu ) )

let frame seed k =
  Hwpat_video.Pattern.random ~seed:(derive seed k) ~width ~height ~depth:8 ()

let out_shape s = Designs.output_shape s.flavor ~width ~height

(* The first three rounds are replayed by a traced run. *)
let replayed_rounds = 3

(* [output] is kept for the frames a traced run replays only, so peak
   memory does not grow with the number of frames a run gets through. *)
type op = {
  cycles : int;
  cycles_per_pixel : float;
  output : Frame.t option;
  clocks : clocks;
  ok : bool;
}

(* One frame through one design; the check against the software
   reference is outside the timed call. *)
let run_op subjects seed k =
  let s = subjects.(k mod Array.length subjects) in
  let input = frame seed k in
  let out_width, out_height = out_shape s in
  match
    clocked (fun () ->
        Experiment.run_video_system ~sim:s.sim s.circuit ~input ~out_width
          ~out_height)
  with
  | run, clocks ->
    Some
      {
        cycles = run.Experiment.cycles;
        cycles_per_pixel = run.Experiment.cycles_per_pixel;
        output =
          (if k < replayed_rounds * Array.length designs then Some run.Experiment.output
           else None);
        clocks;
        ok = Frame.equal run.Experiment.output (Designs.reference s.flavor input);
      }
  | exception Experiment.Timeout _ -> None

let run_ops ?min_calls subjects seed seconds =
  let ops = ref [] in
  let n =
    repeat_for ?min_calls ~multiple_of:(Array.length designs) seconds (fun k ->
        ops := run_op subjects seed k :: !ops)
  in
  (n, List.rev !ops)

let failures ops =
  List.length
    (List.filter (function Some { ok = true; _ } -> false | _ -> true) ops)

let good ops = List.filter_map (function Some o when o.ok -> Some o | _ -> None) ops

(* Simulated cycles per CPU second of each round (one frame of every
   design), median over the complete rounds: a burst of host noise moves
   one round, not the figure.  The simulation runs on one domain, so on
   an idle host this is also the rate in wall time. *)
let cycles_per_s ops =
  let per_round = Array.length designs in
  let ops = Array.of_list ops in
  let rates =
    List.filter_map
      (fun r ->
        let round = Array.to_list (Array.sub ops (r * per_round) per_round) in
        match List.filter_map (function Some o when o.ok -> Some o | _ -> None) round with
        | good when List.length good = per_round ->
          let cycles = List.fold_left (fun a o -> a + o.cycles) 0 good in
          Some (float_of_int cycles /. List.fold_left (fun a o -> a +. o.clocks.cpu) 0.0 good)
        | _ -> None)
      (List.init (Array.length ops / per_round) Fun.id)
  in
  if rates = [] then nan else Stats.median rates

(* run_video_system's loop, replayed call by call with a clock between
   the calls into each layer. *)
type replay = {
  output : Frame.t;
  cycles : int;
  wall : float;
  t_count : float;
  t_drive : float;
  t_cycle : float;
  t_observe : float;
}

let replay s input =
  let t_start = now () in
  let sim = s.sim in
  Cyclesim.reset sim;
  let source = Video_source.create sim input in
  let sink = Vga_sink.create sim () in
  let out_width, out_height = out_shape s in
  let expected = out_width * out_height in
  let budget = 400 * Frame.pixels input in
  let cycles = ref 0 in
  let t_count = ref 0.0 and t_drive = ref 0.0 and t_cycle = ref 0.0
  and t_observe = ref 0.0 in
  let t = ref (now ()) in
  let continue () =
    let c = Vga_sink.count sink in
    let t1 = now () in
    t_count := !t_count +. (t1 -. !t);
    t := t1;
    c < expected && !cycles < budget
  in
  while continue () do
    Video_source.drive source;
    Vga_sink.drive sink;
    let t2 = now () in
    Cyclesim.cycle sim;
    let t3 = now () in
    Video_source.observe source;
    Vga_sink.observe sink;
    let t4 = now () in
    t_drive := !t_drive +. (t2 -. !t);
    t_cycle := !t_cycle +. (t3 -. t2);
    t_observe := !t_observe +. (t4 -. t3);
    t := t4;
    incr cycles
  done;
  let output =
    Vga_sink.to_frame sink ~width:out_width ~height:out_height
      ~depth:(Frame.depth input)
  in
  {
    output;
    cycles = !cycles;
    wall = now () -. t_start;
    t_count = !t_count;
    t_drive = !t_drive;
    t_cycle = !t_cycle;
    t_observe = !t_observe;
  }

(* Cycles and cycles per pixel of each design's first frame. *)
let notes_of ops =
  List.filteri (fun k _ -> k < Array.length designs) ops
  |> List.mapi (fun k -> function
       | Some (o : op) ->
         Printf.sprintf "%s %dx%d: %d cycles, %.4f cycles/pixel" designs.(k) width
           height o.cycles o.cycles_per_pixel
       | None -> Printf.sprintf "%s: frame timed out" designs.(k))

let run ~seed ~seconds ~trace =
  (* Twenty-one set-ups; each set-up figure is the median over them.
     Only the first one's result is kept, and the heap is compacted
     before anything is timed, so every run starts from the same heap. *)
  let subjects, t0 = setup () in
  let reps = t0 :: List.init 20 (fun _ -> snd (setup ())) in
  Gc.compact ();
  let med f = Stats.median (List.map f reps) in
  let setup_s = med (fun (_, _, _, cpu) -> cpu) in
  if not trace then begin
    let n, ops = run_ops subjects seed seconds in
    let lat = List.map (fun o -> o.clocks.wall *. 1000.0) (good ops) in
    {
      attempted = n;
      failed = failures ops;
      e2e =
        [
          metric "setup_s" "s" setup_s;
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "work_per_s" "1/s" (cycles_per_s ops);
        ];
      layers = [];
      notes =
        notes_of ops
        @ [
            "setup_s = CPU seconds of one set-up, median of 21; work_per_s = \
             simulated cycles per CPU second, median over rounds of one frame \
             per design; latency = one frame";
            tail_note "frames" lat;
          ];
    }
  end
  else begin
    (* Untraced frames, then the first three rounds replayed call by
       call on the same inputs: the replay must reproduce each frame's
       cycle count and output exactly. *)
    let rounds = replayed_rounds * Array.length designs in
    let n, ops = run_ops ~min_calls:rounds subjects seed (seconds /. 2.0) in
    let act0 = Array.map (fun s -> Cyclesim.activity s.sim) subjects in
    let words0 = (Gc.quick_stat ()).Gc.minor_words in
    let replays, replay_cpu =
      cpu_time @@ fun () ->
      List.init rounds (fun k ->
          replay subjects.(k mod Array.length subjects) (frame seed k))
    in
    let words = (Gc.quick_stat ()).Gc.minor_words -. words0 in
    let mismatches =
      List.length
        (List.filteri
           (fun k r ->
             match List.nth_opt ops k with
             | Some (Some (o : op)) ->
               o.cycles <> r.cycles
               || not (Option.fold ~none:false ~some:(Frame.equal r.output) o.output)
             | _ -> true)
           replays)
    in
    let settles = ref 0 and evals = ref 0 and full = ref 0 in
    Array.iteri
      (fun i s ->
        let a = Cyclesim.activity s.sim in
        let ds = a.Cyclesim.settles - act0.(i).Cyclesim.settles in
        settles := !settles + ds;
        evals := !evals + (a.Cyclesim.node_evals - act0.(i).Cyclesim.node_evals);
        full := !full + (ds * a.Cyclesim.total_nodes))
      subjects;
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 replays in
    let cycles = float_of_int (List.fold_left (fun a r -> a + r.cycles) 0 replays) in
    let wall = sum (fun r -> r.wall) in
    let layered =
      sum (fun r -> r.t_count +. r.t_drive +. r.t_cycle +. r.t_observe)
    in
    let pixels = List.fold_left (fun a r -> a + Frame.pixels r.output) 0 replays in
    {
      attempted = n + rounds;
      failed = failures ops + mismatches;
      e2e = [];
      layers =
        [
          metric "elab.build_s" "s" (med (fun (b, _, _, _) -> b));
          metric "rtl.plan_s" "s" (med (fun (_, p, _, _) -> p));
          metric "rtl.instantiate_s" "s" (med (fun (_, _, i, _) -> i));
          metric "rtl.cycle_s" "s" (sum (fun r -> r.t_cycle));
          metric "rtl.node_evals_per_cycle" "count"
            (float_of_int !evals /. float_of_int !settles);
          metric "rtl.dirty_skip_rate" "ratio"
            (1.0 -. (float_of_int !evals /. float_of_int !full));
          metric "gc.minor_words_per_cycle" "words" (words /. cycles);
          metric "video.sink_count_s" "s" (sum (fun r -> r.t_count));
          metric "video.drive_s" "s" (sum (fun r -> r.t_drive));
          metric "video.observe_s" "s" (sum (fun r -> r.t_observe));
          metric "sim.cycles_per_pixel" "cycles/pixel" (cycles /. float_of_int pixels);
        ]
        @ tail_layers (List.map (fun o -> o.clocks.wall *. 1000.0) (good ops))
        @ [
          metric "unattributed_pct" "%" (100.0 *. (wall -. layered) /. wall);
          metric "trace_overhead_pct" "%"
            (100.0 *. ((replay_cpu /. cycles *. cycles_per_s ops) -. 1.0));
        ];
      notes =
        notes_of ops
        @ [
            Printf.sprintf
              "replay of the first %d frames: %d with a cycle count or output \
               differing from run_video_system"
              rounds mismatches;
          ];
    }
  end
