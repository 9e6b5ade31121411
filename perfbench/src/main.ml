(* The repository benchmark: one command, one workload per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rate R]

   Prints notes, the machine descriptor and, as the last line of
   standard output, one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
   with --trace 1 the per-layer breakdown.  Exits 1 when any
   correctness check failed, 2 on bad arguments, 3 when terminated by a
   signal.  --rate overrides serve_mix's offered rate (requests per
   second), to measure the daemon's capacity. *)

open Common

let workloads =
  [ "sim_video"; "fault_campaign"; "prove_battery"; "serve_mix" ]

(* Every per-layer metric, in output order, with its unit.  A traced
   run prints all of them; a layer that is not on the workload's path
   reads 0. *)
let layer_metrics =
  [
    ("elab.build_s", "s"); ("rtl.plan_s", "s"); ("rtl.instantiate_s", "s");
    ("rtl.cycle_s", "s"); ("rtl.node_evals_per_cycle", "count");
    ("rtl.dirty_skip_rate", "ratio"); ("gc.minor_words_per_cycle", "words");
    ("video.sink_count_s", "s"); ("video.drive_s", "s"); ("video.observe_s", "s");
    ("sim.cycles_per_pixel", "cycles/pixel");
    ("faultsim.baseline_s", "s"); ("faultsim.batch_s", "s");
    ("faultsim.batch_ms_p50", "ms"); ("faultsim.batch_ms_p90", "ms");
    ("batch.lane_occupancy", "ratio"); ("gc.minor_words_per_fault", "words");
    ("parallel.idle_frac", "ratio");
    ("faultsim.detected", "count"); ("faultsim.masked", "count");
    ("faultsim.silent", "count"); ("faultsim.unfinished", "count");
    ("supervise.retries", "count"); ("supervise.timeouts", "count");
    ("prove.critical_s", "s"); ("prove.kind_s.monitor", "s");
    ("prove.kind_s.equiv", "s"); ("prove.kind_s.optimize", "s");
    ("prove.kind_s.prune", "s"); ("formal.bmc_s", "s"); ("formal.bmc_sweep_s", "s");
    ("formal.discover_s", "s"); ("formal.induction_s", "s");
    ("solver.propagations", "count"); ("solver.conflicts", "count");
    ("solver.decisions", "count"); ("solver.learned_clauses", "count");
    ("serve.parse_us", "us"); ("serve.serialise_us", "us");
  ]
  @ List.concat_map
      (fun (meth, _) ->
        [ (Printf.sprintf "serve.handle_ms.%s.hit" meth, "ms");
          (Printf.sprintf "serve.handle_ms.%s.miss" meth, "ms") ])
      Serve_mix.key_spaces
  @ List.concat_map
      (fun cache ->
        [ (Printf.sprintf "serve.cache.%s.hit_rate" cache, "ratio");
          (Printf.sprintf "serve.cache.%s.evictions" cache, "count") ])
      [ "results"; "plans"; "circuits" ]
  @ [
      ("serve.hit_share", "ratio"); ("serve.queue_wait_ms_p50", "ms");
      ("serve.queue_wait_ms_tail", "ms"); ("loadgen.late_ms_tail", "ms");
      ("serve.backlog_growing", "count"); ("serve.emit_uid_only", "count");
      ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms");
      ("latency_tail_percentile", "%");
      ("latency_samples", "count");
      ("unattributed_pct", "%"); ("trace_overhead_pct", "%");
    ]

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--rate R]\n"
    (String.concat "|" workloads);
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Terminated from outside: unwind, so serve_mix's cleanup
     stops the daemon it started. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Terminated)))
    [ Sys.sigterm; Sys.sigint ];
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds <= 0.0 then usage ();
  let rate =
    match List.assoc_opt "rate" opts with
    | None -> None
    | Some r -> (
      match float_of_string_opt r with Some r when r > 0.0 -> Some r | _ -> usage ())
  in
  let run =
    match workload with
    | "sim_video" -> Sim_video.run
    | "fault_campaign" -> Fault_campaign.run
    | "prove_battery" -> Prove_battery.run
    | _ -> fun ~seed ~seconds ~trace -> Serve_mix.run ?rate ~seed ~seconds ~trace ()
  in
  let o = try run ~seed ~seconds ~trace with Terminated -> exit 3 in
  let metrics =
    if not trace then o.e2e
    else begin
      List.iter
        (fun m ->
          if not (List.mem_assoc m.name layer_metrics) then
            failwith ("unlisted layer metric " ^ m.name))
        o.layers;
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun m -> m.name = name) o.layers with
          | Some m -> m
          | None -> metric name unit_ 0.0)
        layer_metrics
    end
  in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let correct = o.failed = 0 && finite in
  List.iter print_endline o.notes;
  Printf.printf "workload %s, seed %d, %.0f s, trace %b\n" workload seed seconds trace;
  print_endline (machine ());
  print_endline
    (result_line ~correct ~attempted:o.attempted ~failed:o.failed
       (List.map (fun m -> if Float.is_finite m.value then m else { m with value = -1.0 }) metrics));
  exit (if correct then 0 else 1)
