(* Checks of the benchmark's statistics and comparison helpers. *)

open Perfbench

let checks = ref 0
let failures = ref 0

let check name cond =
  incr checks;
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* Percentile rule: the reported tail leaves at least ten samples
     beyond it, and is the highest ladder percentile that does. *)
  check "tail of 19 samples is undefined" (Stats.tail (range 19) = None);
  check "tail of 20 samples is the median"
    (Stats.tail (range 20) = Some (50.0, 10.0));
  check "tail of 99 samples is p75" (Stats.tail (range 99) = Some (75.0, 75.0));
  check "tail of 100 samples is p90"
    (Stats.tail (range 100) = Some (90.0, 90.0));
  check "tail of 999 samples is p95"
    (Stats.tail (range 999) = Some (95.0, 950.0));
  check "tail of 1000 samples is p99"
    (Stats.tail (range 1000) = Some (99.0, 990.0));
  check "tail of 10000 samples is p99.9"
    (Stats.tail (range 10000) = Some (99.9, 9990.0));
  List.iter
    (fun n ->
      match Stats.tail (range n) with
      | None -> check (Printf.sprintf "n=%d has a tail" n) (n < 20)
      | Some (_, v) ->
        let beyond = List.length (List.filter (fun x -> x > v) (range n)) in
        check (Printf.sprintf "n=%d leaves >= 10 beyond the tail" n)
          (beyond >= 10))
    [ 20; 21; 39; 40; 41; 150; 200; 1234; 5000 ];
  check "median of even count averages" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median of odd count" (close (Stats.median [ 5.; 1.; 3. ]) 3.0);
  check "percentile is nearest-rank" (close (Stats.percentile (range 10) 50.0) 5.0);

  (* Self time: the span minus the part of it that children cover;
     overlapping children (parallel workers) count once, and children
     reaching outside the span are clipped to it. *)
  check "self time without children is the duration"
    (close (Stats.self_time ~span:(0., 10.) []) 10.0);
  check "disjoint children are subtracted"
    (close (Stats.self_time ~span:(0., 10.) [ (1., 3.); (5., 6.) ]) 7.0);
  check "overlapping children count once"
    (close (Stats.self_time ~span:(0., 10.) [ (1., 5.); (2., 4.); (4., 7.) ]) 4.0);
  check "children are clipped to the span"
    (close (Stats.self_time ~span:(2., 8.) [ (0., 3.); (7., 12.) ]) 4.0);
  check "children outside the span are ignored"
    (close (Stats.self_time ~span:(2., 8.) [ (9., 12.); (0., 1.) ]) 6.0);
  check "fully covered span has no self time"
    (close (Stats.self_time ~span:(0., 4.) [ (0., 2.); (2., 4.) ]) 0.0);

  (* Open-loop timing: latency runs from the scheduled send, so a
     generator stall counts against every request it delayed, and the
     lateness shows how far behind the generator ran. *)
  let on_time = { Stats.scheduled = 1.0; sent = 1.0; received = Some 1.002 } in
  let stalled = { Stats.scheduled = 1.0; sent = 1.05; received = Some 1.052 } in
  check "on-time request latency is the service time"
    (close (Stats.latency on_time) 0.002);
  check "a stalled send counts in the latency" (close (Stats.latency stalled) 0.052);
  check "on-time lateness is zero" (close (Stats.lateness on_time) 0.0);
  check "stalled lateness is the stall" (close (Stats.lateness stalled) 0.05);
  check "early send is not negative lateness"
    (Stats.lateness { on_time with sent = 0.9 } = 0.0);
  check "missing response has infinite latency"
    (Stats.latency { on_time with received = None } = infinity);

  (* Backlog: a server that keeps up has a stationary backlog; one
     whose service time exceeds the arrival gap falls further behind
     with every request. *)
  let schedule ~gap ~service n =
    let free = ref 0.0 in
    List.init n (fun i ->
        let t = float_of_int i *. gap in
        let start = Float.max t !free in
        free := start +. service;
        { Stats.scheduled = t; sent = t; received = Some !free })
  in
  check "server keeping up has no growing backlog"
    (not (Stats.backlog_growing (schedule ~gap:0.010 ~service:0.005 300)));
  check "server near capacity has no growing backlog"
    (not (Stats.backlog_growing (schedule ~gap:0.010 ~service:0.0095 300)));
  check "overloaded server has a growing backlog"
    (Stats.backlog_growing (schedule ~gap:0.010 ~service:0.012 300));
  check "unanswered requests are backlog"
    (Stats.backlog_growing
       (List.init 300 (fun i ->
            let t = float_of_int i *. 0.01 in
            { Stats.scheduled = t; sent = t;
              received = (if i < 100 then Some (t +. 0.001) else None) })));
  check "a lagging generator does not hide the backlog"
    (Stats.backlog_growing
       (List.map
          (fun r -> { r with Stats.sent = Option.get r.Stats.received })
          (schedule ~gap:0.010 ~service:0.012 300)));
  (* Uid renumbering: the runs that differ between two emissions of
     one netlist are the uids; texts that differ only by a one-to-one
     renaming of those compare equal, and every other difference
     survives, in the uid runs or elsewhere. *)
  let e1 = "reg [15:0] fifo_16_38; type ram_218_t is array; s_19 <= fifo_16_38;"
  and e2 = "reg [15:0] fifo_16_404; type ram_364_t is array; s_385 <= fifo_16_404;" in
  let mask = Option.get (Uids.uid_mask e1 e2) in
  let same got = Uids.equal_but_uids mask ~expected:e1 got in
  check "a uid-only difference is equated"
    (same "reg [15:0] fifo_16_7; type ram_2_t is array; s_9 <= fifo_16_7;");
  check "the emissions themselves are equated" (same e2);
  check "a run equal in both emissions is not a uid"
    (not (same "reg [15:0] fifo_32_38; type ram_218_t is array; s_19 <= fifo_32_38;"));
  check "two uids merged into one survive"
    (not (same "reg [15:0] fifo_16_7; type ram_2_t is array; s_7 <= fifo_16_7;"));
  check "one uid split into two survives"
    (not (same "reg [15:0] fifo_16_7; type ram_2_t is array; s_9 <= fifo_16_8;"));
  check "a changed name survives"
    (not (same "reg [15:0] fifo_16_38; type ram_218_t is array; q_19 <= fifo_16_38;"));
  check "a changed width survives"
    (not (same "reg [14:0] fifo_16_38; type ram_218_t is array; s_19 <= fifo_16_38;"));
  check "an extra uid run survives"
    (not (same "reg [15:0] fifo_16_38; type ram_218_t is array; s_19 <= fifo_16_38_1;"));
  check "emissions differing outside the runs give no mask"
    (Uids.uid_mask "wire s_1;" "reg s_2;" = None);
  check "digits without an identifier before the underscore are not runs"
    (Uids.uid_mask "x = _12;" "x = _13;" = None);
  Printf.printf "perfbench helpers: %d/%d checks passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1
