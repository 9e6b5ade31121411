open Hwpat_rtl
open Hwpat_video

(* Seeded fault-injection campaigns over the video systems: run each
   fault in a fresh simulation with runtime monitors attached, compare
   against the fault-free reference, and classify the outcome. *)

type outcome = Detected | Masked | Silent | Unfinished

let outcome_name = function
  | Detected -> "detected"
  | Masked -> "masked"
  | Silent -> "silent"
  | Unfinished -> "unfinished"

let outcome_of_name = function
  | "detected" -> Some Detected
  | "masked" -> Some Masked
  | "silent" -> Some Silent
  | "unfinished" -> Some Unfinished
  | _ -> None

type result = {
  description : string;
  outcome : outcome;
  detail : string option;
  err_flag : bool;
  completed : bool;
  cycles : int;
}

type summary = {
  design : string;
  seed : int;
  monitors : int;
  baseline_cycles : int;
  results : result list;
}

let count summary outcome =
  List.length (List.filter (fun r -> r.outcome = outcome) summary.results)

let coverage summary =
  (* Detection coverage over the faults that mattered: masked faults
     had no observable effect, so they need no detecting. *)
  let detected = count summary Detected and silent = count summary Silent in
  if detected + silent = 0 then 1.0
  else float_of_int detected /. float_of_int (detected + silent)

(* --- Single runs --------------------------------------------------------- *)

let has_output circuit port = List.mem_assoc port (Circuit.outputs circuit)

(* One simulation of a stream-copy circuit: feed [frame], collect the
   same number of pixels, stop at [budget] cycles. [events] are
   scheduled on a Fault injector; monitors are auto-attached by naming
   convention. [sim] reuses an existing simulator of [circuit] (it is
   reset first, which restores power-on state exactly — campaigns pass
   a per-worker instance of a shared compiled plan); otherwise a fresh
   simulator is created. Monitor, injector, source and sink are always
   fresh, so a reused simulator carries no residue between runs. *)
let run_once ?engine ?sim ?(events = []) ?(check = fun () -> ()) ~budget ~frame
    circuit =
  let expected = Frame.pixels frame in
  let sim =
    match sim with
    | Some sim ->
      Cyclesim.reset sim;
      sim
    | None -> Cyclesim.create ?engine circuit
  in
  let monitor = Monitor.create sim in
  let monitors = Monitor.add_auto monitor in
  let injector = Fault.create sim in
  List.iter
    (fun (e : Fault.event) -> Fault.schedule injector ~at:e.Fault.at e.Fault.fault)
    events;
  let source = Video_source.create sim frame in
  let sink = Vga_sink.create sim () in
  let cycles = ref 0 in
  while Vga_sink.count sink < expected && !cycles < budget do
    check ();
    Video_source.drive source;
    Vga_sink.drive sink;
    Fault.step injector;
    Cyclesim.cycle sim;
    Monitor.sample monitor;
    Video_source.observe source;
    Vga_sink.observe sink;
    incr cycles
  done;
  let err_flag =
    has_output circuit "err" && Bits.to_bool !(Cyclesim.out_port sim "err")
  in
  (Vga_sink.collected sink, !cycles, monitor, monitors, err_flag)

(* --- Campaigns ----------------------------------------------------------- *)

let classify ~reference ~expected ~collected ~cycles ~first_violation ~err_flag
    ~description =
  let completed = List.length collected = expected in
  let detected = first_violation <> None || err_flag in
  let outcome =
    if detected then Detected
    else if completed && collected = reference then Masked
    else Silent
  in
  {
    description;
    outcome;
    (* Pre-rendered at classification time: the violation text is
       uid-independent and journals as a plain string. *)
    detail =
      Option.map
        (fun v -> Format.asprintf "%a" Monitor.pp_violation v)
        first_violation;
    err_flag;
    completed;
    cycles;
  }

(* The campaign is trivially parallel: every fault runs against the
   shared (immutable) reference pixels. The circuit is elaborated and
   compiled exactly once, into a shared immutable [Cyclesim.plan];
   each worker domain instantiates one simulator from the plan and
   reuses it for every fault it executes, with [Cyclesim.reset]
   restoring power-on state between faults — elaborate/compile cost is
   paid once per campaign instead of once per fault. Fault events are
   drawn once from the master circuit and apply directly to any
   instance (instances share the master's signal graph read-only).
   Results merge in fault order and each fault starts from identical
   reset state, so the summary is bit-identical for any [jobs] and any
   work-stealing schedule. *)
let run_campaign ?(trace = Hwpat_obs.Trace.null)
    ?(metrics = Hwpat_obs.Metrics.null) ?engine ?plan ?lanes ?jobs ?policy
    ?cancel ?checkpoint ?(resume = false) ?(seed = 1) ?(faults = 20)
    ?(frame_width = 8) ?(frame_height = 8) ~build ~design () =
  let module Trace = Hwpat_obs.Trace in
  (match lanes with
  | Some l when l < 1 || l > Simbatch.lane_bits ->
    invalid_arg
      (Printf.sprintf "Faultsim: lanes must be in 1..%d" Simbatch.lane_bits)
  | Some _ when engine = Some Cyclesim.Reference ->
    invalid_arg "Faultsim: the reference engine has no batched form"
  | _ -> ());
  (match (plan, engine) with
  | Some p, Some e when Cyclesim.plan_engine p <> e ->
    invalid_arg "Faultsim: plan engine does not match requested engine"
  | _ -> ());
  Trace.span trace "faultsim"
    ~args:[ ("design", Trace.String design); ("faults", Trace.Int faults) ]
  @@ fun () ->
  let frame = Pattern.gradient ~width:frame_width ~height:frame_height ~depth:8 in
  let expected = Frame.pixels frame in
  (* A caller-supplied plan (the serve daemon's cache) stands in for
     elaboration and compilation both; its circuit is the campaign
     master and [build] is never called. *)
  let circuit, plan =
    match plan with
    | Some p -> (Cyclesim.plan_circuit p, p)
    | None ->
      let circuit = build () in
      ( circuit,
        Trace.span trace "compile" (fun () -> Cyclesim.plan ?engine circuit) )
  in
  (* Fault-free reference run: also sanity-checks that the monitors
     stay silent on the healthy design. *)
  let reference, baseline_cycles, base_monitor, monitors, _ =
    Trace.span trace "baseline" (fun () ->
        run_once ~sim:(Cyclesim.of_plan plan) ~budget:(400 * expected) ~frame
          circuit)
  in
  if List.length reference <> expected then
    invalid_arg
      (Printf.sprintf "Faultsim: %s does not complete fault-free" design);
  (match Monitor.first_violation base_monitor with
  | Some v ->
    invalid_arg
      (Printf.sprintf "Faultsim: %s violates protocol fault-free: %s" design
         (Format.asprintf "%a" Monitor.pp_violation v))
  | None -> ());
  let budget = (4 * baseline_cycles) + 64 in
  let events =
    Array.of_list
      (Fault.random_campaign ~seed ~n:faults ~max_cycle:baseline_cycles circuit)
  in
  let descriptions =
    Array.map (Fault.describe_event_in circuit) events
  in
  (* Checkpoint identity: the campaign parameters that determine every
     classification.  (The engine is deliberately excluded — the
     differential suite holds classifications identical across
     engines, so a journal from either replays in both.) *)
  let config =
    Printf.sprintf "faultsim design=%s seed=%d faults=%d frame=%dx%d" design
      seed faults frame_width frame_height
  in
  let journal =
    Option.map (fun path -> Journal.start ~path ~config ~resume) checkpoint
  in
  Fun.protect ~finally:(fun () -> Option.iter Journal.close journal)
  @@ fun () ->
  (* Journal keys are uid-independent: the fault index plus its
     describe_event_in rendering, stable across processes and jobs. *)
  let key k = Printf.sprintf "%d:%s" k descriptions.(k) in
  let encode r =
    Printf.sprintf "%s %b %b %d %S" (outcome_name r.outcome) r.err_flag
      r.completed r.cycles
      (match r.detail with Some d -> d | None -> "")
  in
  let decode k data =
    try
      Scanf.sscanf data "%s %B %B %d %S"
        (fun name err_flag completed cycles detail ->
          Option.map
            (fun outcome ->
              {
                description = descriptions.(k);
                outcome;
                detail = (if detail = "" then None else Some detail);
                err_flag;
                completed;
                cycles;
              })
            (outcome_of_name name))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  let unfinished k reason =
    {
      description = descriptions.(k);
      outcome = Unfinished;
      detail = Some reason;
      err_flag = false;
      completed = false;
      cycles = 0;
    }
  in
  let scalar_results () =
    let run_shard sim ctx k =
      (* One span per fault, recorded on the worker's own domain lane, so
         the trace shows worker utilization and straggler shards. The
         worker's simulator instance is reused; run_once resets it. *)
      Trace.span trace (Printf.sprintf "fault#%d" k) @@ fun () ->
      let collected, cycles, monitor, _, err_flag =
        run_once ~sim ~events:[ events.(k) ]
          ~check:(fun () -> Supervise.check ctx)
          ~budget ~frame circuit
      in
      let r =
        classify ~reference ~expected ~collected ~cycles
          ~first_violation:(Monitor.first_violation monitor)
          ~err_flag ~description:descriptions.(k)
      in
      Trace.annotate trace "outcome" (Trace.String (outcome_name r.outcome));
      r
    in
    let outcomes =
      Supervise.run_shards_local ?jobs ?policy ~metrics ?cancel ?journal ~key
        ~encode ~decode
        ~local:(fun () -> Cyclesim.of_plan plan)
        (Array.length events) run_shard
    in
    Array.to_list
      (Array.mapi
         (fun k -> function
           | Supervise.Done r -> r
           | Supervise.Unfinished { reason; attempts = _ } ->
             unfinished k reason)
         outcomes)
  in
  (* Batched path: faults are grouped [lanes] at a time into one
     bit-parallel simulation (ceil(pending/lanes) simulations instead
     of one per fault). Each lane gets its own fresh monitor, injector,
     source and sink over a lane view; the per-lane driver loop mirrors
     [run_once]'s exactly — per active lane: drive source, drive sink,
     step injector, then ONE global batch cycle, then sample monitor
     and observe, with the lane's result latched the moment its own
     while-condition (all pixels collected, or budget exhausted) goes
     false. All lanes of a batch start at cycle 0 together, so each
     lane's trajectory and classification are bit-identical to its
     scalar run, and the demultiplexed summary is byte-identical to the
     scalar engine's at any lane count and any job count. Journaling is
     manual here (batch membership depends on which faults were already
     journaled, so batches are not stable resume keys; individual
     faults are): journaled faults are decoded up front and only
     pending ones batched, and each completed batch records its faults
     under the same per-fault keys the scalar path uses — scalar and
     batched journals interoperate. *)
  let batched_results lanes =
    let n = Array.length events in
    let merged = Array.make n None in
    (match journal with
    | Some j ->
      for k = 0 to n - 1 do
        match Journal.find j (key k) with
        | Some data ->
          (match decode k data with
          | Some r ->
            merged.(k) <- Some r;
            Hwpat_obs.Metrics.incr metrics "supervise.skipped"
          | None -> ())
        | None -> ()
      done
    | None -> ());
    let pending =
      List.filter (fun k -> merged.(k) = None) (List.init n Fun.id)
    in
    let batches =
      let rec chunk = function
        | [] -> []
        | l ->
          let rec take i acc = function
            | x :: rest when i < lanes -> take (i + 1) (x :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let b, rest = take 0 [] l in
          Array.of_list b :: chunk rest
      in
      Array.of_list (chunk pending)
    in
    let run_batch batch ctx bi =
      let faults = batches.(bi) in
      let nb = Array.length faults in
      Trace.span trace (Printf.sprintf "batch#%d" bi)
        ~args:[ ("faults", Trace.Int nb) ]
      @@ fun () ->
      Simbatch.reset batch;
      (* The harness is plane-batched end to end: the monitor, source
         and sink each touch every lane with a handful of word
         operations per cycle, so the per-cycle cost no longer scales
         with the lane count. Only fault injection stays per-lane
         (each lane runs a different fault), through a lane view. *)
      let bmon = Monitor.Batch.create batch in
      ignore (Monitor.Batch.add_auto bmon);
      let injectors =
        Array.init nb (fun l ->
            let inj = Fault.create (Cyclesim.lane_view batch l) in
            let e = events.(faults.(l)) in
            Fault.schedule inj ~at:e.Fault.at e.Fault.fault;
            inj)
      in
      let source = Video_source.Batch.create batch frame in
      let sink = Vga_sink.Batch.create batch () in
      let err_node =
        if has_output circuit "err" then
          Some
            ( Simbatch.out_node batch "err",
              Signal.width (Circuit.find_output circuit "err") )
        else None
      in
      let cycles = Array.make nb 0 in
      let active = Array.make nb true in
      let err = Array.make nb false in
      let active_mask =
        ref (if nb >= 64 then -1L else Int64.sub (Int64.shift_left 1L nb) 1L)
      in
      let n_active = ref nb in
      let gcycle = ref 0 in
      while !n_active > 0 do
        Supervise.check ctx;
        Video_source.Batch.drive source ~mask:!active_mask;
        Vga_sink.Batch.drive sink ~mask:!active_mask;
        for l = 0 to nb - 1 do
          if active.(l) then Fault.step injectors.(l)
        done;
        Simbatch.cycle batch;
        Monitor.Batch.sample bmon ~active:!active_mask ~cycle:!gcycle;
        Video_source.Batch.observe source ~mask:!active_mask;
        Vga_sink.Batch.observe sink ~mask:!active_mask;
        incr gcycle;
        for l = 0 to nb - 1 do
          if active.(l) then begin
            cycles.(l) <- cycles.(l) + 1;
            if
              not (Vga_sink.Batch.count sink ~lane:l < expected
                  && cycles.(l) < budget)
            then begin
              active.(l) <- false;
              active_mask :=
                Int64.logand !active_mask
                  (Int64.lognot (Int64.shift_left 1L l));
              decr n_active;
              err.(l) <-
                (match err_node with
                | Some (i, w) ->
                  let any = ref 0L in
                  for b = 0 to w - 1 do
                    any :=
                      Int64.logor !any (Simbatch.read_plane batch i ~plane:b)
                  done;
                  Int64.logand (Int64.shift_right_logical !any l) 1L = 1L
                | None -> false)
            end
          end
        done
      done;
      Array.init nb (fun l ->
          let k = faults.(l) in
          let r =
            classify ~reference ~expected
              ~collected:(Vga_sink.Batch.collected sink ~lane:l)
              ~cycles:cycles.(l)
              ~first_violation:(Monitor.Batch.first_violation bmon ~lane:l)
              ~err_flag:err.(l) ~description:descriptions.(k)
          in
          (match journal with
          | Some j -> Journal.record j ~key:(key k) (encode r)
          | None -> ());
          (k, r))
    in
    let outcomes =
      Supervise.run_shards_local ?jobs ?policy ~metrics ?cancel
        ~key:(fun bi ->
          let faults = batches.(bi) in
          Printf.sprintf "batch:%d-%d" faults.(0)
            faults.(Array.length faults - 1))
        ~local:(fun () -> Cyclesim.instantiate_batched ~lanes plan)
        (Array.length batches) run_batch
    in
    Array.iteri
      (fun bi -> function
        | Supervise.Done pairs ->
          Array.iter (fun (k, r) -> merged.(k) <- Some r) pairs
        | Supervise.Unfinished { reason; attempts = _ } ->
          Array.iter
            (fun k -> merged.(k) <- Some (unfinished k reason))
            batches.(bi))
      outcomes;
    Array.to_list (Array.map Option.get merged)
  in
  let results =
    match lanes with
    | None -> scalar_results ()
    | Some lanes -> batched_results lanes
  in
  List.iter
    (fun r ->
      Hwpat_obs.Metrics.incr metrics
        ("faultsim." ^ String.lowercase_ascii (outcome_name r.outcome)))
    results;
  Hwpat_obs.Metrics.incr metrics ~by:baseline_cycles "faultsim.baseline_cycles";
  { design; seed; monitors; baseline_cycles; results }

(* --- Named designs (CLI / bench entry points) ---------------------------- *)

let designs =
  [
    ( "saa2vga_fifo_pattern",
      fun () -> Saa2vga.build ~substrate:Saa2vga.Fifo ~style:Saa2vga.Pattern () );
    ( "saa2vga_fifo_custom",
      fun () -> Saa2vga.build ~substrate:Saa2vga.Fifo ~style:Saa2vga.Custom () );
    ( "saa2vga_sram_pattern",
      fun () -> Saa2vga.build ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern () );
    ( "saa2vga_sram_custom",
      fun () -> Saa2vga.build ~substrate:Saa2vga.Sram ~style:Saa2vga.Custom () );
    ( "saa2vga_sram_shared_pattern",
      fun () ->
        Saa2vga.build ~substrate:Saa2vga.Sram_shared ~style:Saa2vga.Pattern () );
    ("saa2vga_sram_protected", fun () -> Saa2vga.build_protected ());
    ( "saa2vga_sram_protected_faulty",
      fun () -> Saa2vga.build_protected ~faulty:true () );
  ]

let design_names = List.map fst designs

let find_design name =
  match List.assoc_opt name designs with
  | Some build -> build
  | None ->
    invalid_arg
      (Printf.sprintf "Faultsim: unknown design %s (known: %s)" name
         (String.concat ", " design_names))

(* --- Reporting ----------------------------------------------------------- *)

let render summary =
  let buf = Buffer.create 1024 in
  let emit fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  emit "fault campaign: %s (seed %d)\n" summary.design summary.seed;
  emit "  monitors attached: %d, fault-free run: %d cycles\n" summary.monitors
    summary.baseline_cycles;
  emit "  faults: %d   detected: %d   masked: %d   silent: %d   unfinished: %d\n"
    (List.length summary.results)
    (count summary Detected) (count summary Masked) (count summary Silent)
    (count summary Unfinished);
  emit "  detection coverage (non-masked faults): %.0f%%\n"
    (100.0 *. coverage summary);
  List.iter
    (fun r ->
      emit "  %-10s %-44s %s\n" (outcome_name r.outcome) r.description
        (match r.detail with
        | Some d -> "[" ^ d ^ "]"
        | None when r.err_flag -> "[err output high]"
        | None when not r.completed -> "[hung]"
        | None -> ""))
    summary.results;
  Buffer.contents buf

(* Machine-readable summary. Only structurally stable data is emitted
   (descriptions label unnamed signals positionally, never by uid), so
   two campaigns with the same parameters — serial or sharded, in the
   same process or not — render to identical bytes. *)
let summary_to_json summary =
  let module J = Hwpat_base.Json in
  let result r =
    J.Obj
      [
        ("fault", J.String r.description);
        ("outcome", J.String (outcome_name r.outcome));
        ("detail", match r.detail with Some d -> J.String d | None -> J.Null);
        ("err_flag", J.Bool r.err_flag);
        ("completed", J.Bool r.completed);
        ("cycles", J.Int r.cycles);
      ]
  in
  J.Obj
    [
      ("design", J.String summary.design);
      ("seed", J.Int summary.seed);
      ("monitors", J.Int summary.monitors);
      ("baseline_cycles", J.Int summary.baseline_cycles);
      ("faults", J.Int (List.length summary.results));
      ("detected", J.Int (count summary Detected));
      ("masked", J.Int (count summary Masked));
      ("silent", J.Int (count summary Silent));
      ("unfinished", J.Int (count summary Unfinished));
      ("coverage", J.rounded 4 (coverage summary));
      ("results", J.List (List.map result summary.results));
    ]

(* FF/LUT/fmax cost of the generated protection hardware, through the
   same estimation pipeline as Table 3. *)
let protection_overhead ?board () =
  Hwpat_synthesis.Resource_report.compare_pair ?board
    ~name:"saa2vga protection"
    (Saa2vga.build ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern ())
    (Saa2vga.build_protected ())
