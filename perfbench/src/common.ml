(* Plumbing shared by the workloads: clocks, metric records, memory
   readings, the machine descriptor and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* CPU time of this process, all its domains, in seconds.  Set-up is
   measured in CPU time: unlike wall time it does not grow when other
   processes on the host take the cores. *)
let process_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let c0 = process_cpu_s () in
  let v = f () in
  (v, process_cpu_s () -. c0)

(* The workloads run on one domain (see README), so their CPU time is
   the time they kept a core busy; a timed operation records both
   clocks: CPU time for the rates, wall time for latency. *)
type clocks = { wall : float; cpu : float }

let clocked f =
  let c0 = process_cpu_s () in
  let v, wall = time f in
  (v, { wall; cpu = process_cpu_s () -. c0 })

(* Raised by the SIGTERM/SIGINT handler, so cleanup code runs. *)
exception Terminated

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one run of a workload reports.  [e2e] is printed by an untraced
   run, [layers] by a traced one; [notes] are human-readable lines
   printed before the result. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  notes : string list;
}

(* Repeat [f i] for i = 0, 1, ... until [seconds] have passed, at
   least [min_calls] calls were made and the count is a multiple of
   [multiple_of]; the number of calls. *)
let repeat_for ?(min_calls = 1) ?(multiple_of = 1) seconds f =
  let stop = now () +. seconds in
  let rec go i =
    if now () >= stop && i mod multiple_of = 0 && i >= min_calls then i
    else begin
      f i;
      go (i + 1)
    end
  in
  go 0

(* The latency median and tail (by the percentile rule, {!Stats.tail})
   as a note for untraced runs. *)
let tail_note what lat_ms =
  match lat_ms with
  | [] -> Printf.sprintf "latency: no %s completed" what
  | _ -> (
    let p50 = Perfbench.Stats.median lat_ms in
    match Perfbench.Stats.tail lat_ms with
    | Some (p, v) ->
      Printf.sprintf "latency of %d %s: p50 %.3f ms, p%g %.3f ms" (List.length lat_ms)
        what p50 p v
    | None ->
      Printf.sprintf "latency of %d %s: p50 %.3f ms (too few for a tail)"
        (List.length lat_ms) what p50)

let tail_value xs = Option.fold ~none:0.0 ~some:snd (Perfbench.Stats.tail xs)

(* The latency median and tail as per-layer metrics.  Neither is an
   end-to-end metric: on the serve traffic the run-to-run spread of
   their sub-millisecond median reached the 0.25 bound limit (see
   README). *)
let tail_layers lat_ms =
  let p, v = Option.value (Perfbench.Stats.tail lat_ms) ~default:(0.0, 0.0) in
  [
    metric "latency_p50_ms" "ms" (if lat_ms = [] then 0.0 else Perfbench.Stats.median lat_ms);
    metric "latency_tail_ms" "ms" v;
    metric "latency_tail_percentile" "%" p;
    metric "latency_samples" "count" (float_of_int (List.length lat_ms));
  ]

(* A seed for the [k]-th input of a run, derived from the benchmark
   seed so the same seed always gives the same inputs. *)
let derive seed k =
  Random.State.bits (Random.State.make [| 0x62656e; seed; k |])

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      scan ())

(* CPU time a process's threads have run, in seconds (the sum of
   /proc/<pid>/task/*/schedstat, which counts in nanoseconds). *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | ic ->
        let ns = try Scanf.sscanf (input_line ic) "%d" Fun.id with _ -> 0 in
        close_in ic;
        acc +. (float_of_int ns /. 1e9)
      | exception Sys_error _ -> acc)
    0.0 (Sys.readdir dir)

(* Online CPUs available to this process, as the [nproc] tool reports. *)
let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    n
  | exception Unix.Unix_error _ -> 0

(* The commit when run inside a git work tree; otherwise (an exported
   checkout) a digest of the program's sources. *)
let revision () =
  let read path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  match read ".git/HEAD" with
  | head ->
    if String.starts_with ~prefix:"ref: " head then
      let ref_ = String.sub head 5 (String.length head - 5) in
      (try "commit " ^ read (Filename.concat ".git" ref_)
       with Sys_error _ | End_of_file -> "commit unknown")
    else "commit " ^ head
  | exception (Sys_error _ | End_of_file) ->
    let rec files dir =
      match Sys.readdir dir with
      | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml"
                       || Filename.check_suffix p ".mli"
                       || Filename.basename p = "dune"
               then [ p ]
               else [])
      | exception Sys_error _ -> []
    in
    let srcs = files "lib" @ files "bin" in
    let digest =
      Digest.to_hex
        (Digest.string (String.concat "" (List.map Digest.file srcs)))
    in
    Printf.sprintf "sources md5 %s (%d files)" digest (List.length srcs)

let machine () =
  Printf.sprintf
    "machine: nproc %d, recommended_domain_count %d, ocaml %s, %s"
    (nproc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (revision ())

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.value) m.unit_)
          metrics))
