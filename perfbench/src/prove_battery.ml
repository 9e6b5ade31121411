(* prove_battery: the [hwpat prove] path.  The full battery of 53
   formal obligations (Bmc monitor proofs, Equiv checks of the paper
   designs, random netlists and pruned containers) through [Prove.run].
   The battery is fixed by the program, so the seed does not apply. *)

open Hwpat_core
open Common
module Stats = Perfbench.Stats

(* One domain: with two, the run-to-run medians moved with the host's
   load by up to 1.9x between sets of runs (see README). *)
let jobs = 1
let battery ?trace ?metrics () = Prove.run ?trace ?metrics ~jobs ()
let proved rs = List.length (List.filter (fun r -> r.Prove.ok) rs)

let run_batteries ?min_calls seconds =
  let ops = ref [] in
  let n = repeat_for ?min_calls seconds (fun _ -> ops := cpu_time battery :: !ops) in
  (n, List.rev !ops)

let obligations ops = List.fold_left (fun a (rs, _) -> a + List.length rs) 0 ops
let failed ops = obligations ops - List.fold_left (fun a (rs, _) -> a + proved rs) 0 ops

(* A battery's time is what a [hwpat prove] user waits for; on one
   domain it is the battery's CPU time.  A run's figures use the median
   battery. *)
let median_s ops = Stats.median (List.map snd ops)
let rate ops = float_of_int (List.length (fst (List.hd ops))) /. median_s ops

(* Obligation latencies as Prove reports them. *)
let battery_ms (rs, _) = List.map (fun r -> r.Prove.seconds *. 1000.0) rs

let kinds = [ "monitor"; "equiv"; "optimize"; "prune" ]
let phases = [ "bmc"; "bmc_sweep"; "discover"; "induction" ]

let run ~seed:_ ~seconds ~trace =
  (* Prove.run elaborates inside each obligation, so nothing can be
     built ahead of it.  Set-up warms the prover with the program's own
     smoke battery ([hwpat prove --smoke]: the paper-design monitor
     proofs at a reduced bound and ten optimizer equivalences, 13
     obligations), run 21 times; its figure is the median CPU time of
     one smoke battery. *)
  let smokes =
    List.init 21 (fun _ -> cpu_time (fun () -> Prove.run ~jobs ~smoke:true ()))
  in
  let setup_s = Stats.median (List.map snd smokes) in
  Gc.compact ();
  let seed_note = "the battery is fixed by the program: --seed does not apply" in
  if not trace then begin
    let n, ops = run_batteries seconds in
    {
      attempted = obligations ops + obligations smokes;
      failed = failed ops + failed smokes;
      e2e =
        [
          metric "setup_s" "s" setup_s;
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "work_per_s" "1/s" (rate ops);
        ];
      layers = [];
      notes =
        [
          seed_note;
          Printf.sprintf "%d batteries at jobs %d: %d/%d obligations proved" n
            jobs (obligations ops - failed ops) (obligations ops);
          Printf.sprintf
            "work_per_s = obligations decided per CPU second in the median \
             battery (%.3f s; fastest %.3f s, slowest %.3f s)"
            (median_s ops)
            (List.fold_left (fun a (_, t) -> Float.min a t) infinity ops)
            (List.fold_left (fun a (_, t) -> Float.max a t) 0.0 ops);
          tail_note "obligations of the first battery" (battery_ms (List.hd ops));
        ];
    }
  end
  else begin
    let n0, untraced = run_batteries (seconds /. 2.0) in
    let tr = Hwpat_obs.Trace.create () in
    let metrics = Hwpat_obs.Metrics.create () in
    let results, traced_cpu =
      cpu_time (fun () ->
          Hwpat_obs.Trace.span tr "bench:battery" (fun () -> battery ~trace:tr ~metrics ()))
    in
    let spans = Spans.of_trace tr in
    let root = List.hd (Spans.named "bench:battery" spans) in
    let obligation s =
      List.exists (fun k -> Spans.has_prefix (k ^ ":") s) kinds
    in
    let obls = List.filter obligation spans in
    let wall = Spans.duration root in
    let counter name =
      metric name "count" (float_of_int (Hwpat_obs.Metrics.counter_value metrics name))
    in
    {
      attempted = obligations ((results, traced_cpu) :: untraced @ smokes);
      failed = failed ((results, traced_cpu) :: untraced @ smokes);
      e2e = [];
      layers =
        [
          metric "prove.critical_s" "s"
            (List.fold_left (fun a s -> Float.max a (Spans.duration s)) 0.0 obls);
        ]
        @ List.map
            (fun k ->
              metric ("prove.kind_s." ^ k) "s"
                (Spans.total (List.filter (Spans.has_prefix (k ^ ":")) obls)))
            kinds
        @ List.map
            (fun p -> metric ("formal." ^ p ^ "_s") "s" (Spans.total (Spans.named p spans)))
            phases
        @ List.map counter
            [ "solver.propagations"; "solver.conflicts"; "solver.decisions";
              "solver.learned_clauses" ]
        @ [
            metric "parallel.idle_frac" "ratio"
              (1.0 -. (Spans.total obls /. (float_of_int jobs *. wall)));
          ]
        @ tail_layers (battery_ms (List.hd untraced))
        @ [
            metric "unattributed_pct" "%"
              (100.0
              *. Stats.self_time ~span:(Spans.interval root)
                   (List.map Spans.interval obls)
              /. wall);
            metric "trace_overhead_pct" "%"
              (100.0 *. ((rate untraced /. rate [ (results, traced_cpu) ]) -. 1.0));
          ];
      notes =
        [ seed_note; Printf.sprintf "%d untraced batteries, 1 traced" n0 ];
    }
  end
