(* The observability layer: span nesting, disabled-handle no-ops,
   histogram bucketing, and well-formedness of the JSON exporters. *)

open Hwpat_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A tiny JSON syntax checker — enough grammar to vet what the
   exporters emit (objects, arrays, strings with escapes, numbers,
   true/false/null).  [valid] iff the whole input is one JSON value. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail := true
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && (not !fail) && !pos < n do
      match s.[!pos] with
      | '"' -> incr pos; fin := true
      | '\\' ->
        incr pos;
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
        | Some 'u' ->
          incr pos;
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
            | _ -> fail := true)
          done
        | _ -> fail := true)
      | c when Char.code c < 0x20 -> fail := true
      | _ -> incr pos
    done;
    if not !fin then fail := true
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail := true
  in
  let literal word =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then pos := !pos + l
    else fail := true
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then incr pos
      else begin
        let more = ref true in
        while !more && not !fail do
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some '}' -> incr pos; more := false
          | _ -> fail := true
        done
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then incr pos
      else begin
        let more = ref true in
        while !more && not !fail do
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some ']' -> incr pos; more := false
          | _ -> fail := true
        done
      end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> number ());
    skip_ws ()
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

(* --- Trace ---------------------------------------------------------------- *)

let test_span_nesting () =
  let t = Trace.create () in
  let r =
    Trace.span t "outer" (fun () ->
        Trace.span t "inner" (fun () -> ());
        Trace.span t "inner" (fun () -> ());
        17)
  in
  check_int "span returns body value" 17 r;
  Trace.span t "other" (fun () -> ());
  let json = Trace.to_chrome_json t in
  check_bool "outer event" true (contains "\"name\":\"outer\"" json);
  check_bool "inner event" true (contains "\"name\":\"inner\"" json);
  let s = Trace.summary t in
  (* Aggregated by path: the two [inner] calls fold into one line,
     indented under [outer]; [other] is a root at column 0. *)
  check_bool "summary aggregates inner" true (contains "inner" s);
  check_bool "inner indented under outer" true (contains "\n  inner" s);
  check_bool "other at root, unindented" true
    (contains "other" s && not (contains "  other" s));
  check_bool "two inner calls" true (contains " 2 call" s)

let test_span_exception () =
  let t = Trace.create () in
  (try
     Trace.span t "boom" (fun () -> failwith "inside")
   with Failure _ -> ());
  let json = Trace.to_chrome_json t in
  check_bool "span recorded despite raise" true
    (contains "\"name\":\"boom\"" json);
  (* The stack must have been popped: a following span is a root, not
     nested (= indented) under the raising one. *)
  Trace.span t "after" (fun () -> ());
  let s = Trace.summary t in
  check_bool "stack popped after raise" true
    (contains "after" s && not (contains "  after" s))

let test_annotate () =
  let t = Trace.create () in
  Trace.span t "work" (fun () ->
      Trace.annotate t "verdict" (Trace.String "ok");
      Trace.annotate t "verdict" (Trace.String "better");
      Trace.annotate t "n" (Trace.Int 3));
  let json = Trace.to_chrome_json t in
  check_bool "last annotation wins" true (contains "\"better\"" json);
  check_bool "overwritten value gone" false (contains "\"ok\"" json);
  check_bool "int annotation" true (contains "\"n\":3" json)

let test_null_trace () =
  check_bool "null disabled" false (Trace.enabled Trace.null);
  check_bool "active enabled" true (Trace.enabled (Trace.create ()));
  let ran = ref false in
  let r = Trace.span Trace.null "ignored" (fun () -> ran := true; 5) in
  check_int "null span runs body" 5 r;
  check_bool "body ran" true !ran;
  Trace.instant Trace.null "nothing";
  Trace.annotate Trace.null "k" (Trace.Bool true);
  let json = Trace.to_chrome_json Trace.null in
  check_bool "null json valid" true (json_valid json);
  check_bool "null json has no events" false (contains "\"name\"" json)

let test_trace_json_well_formed () =
  let t = Trace.create () in
  Trace.span t "needs \"escaping\"\n\\here" (fun () ->
      Trace.instant t "marker" ~args:[ ("f", Trace.Float 1.5) ];
      Trace.counter t "gauge" [ ("series", 2.0) ]);
  Trace.span t "args"
    ~args:
      [
        ("i", Trace.Int (-3));
        ("f", Trace.Float nan);
        ("s", Trace.String "x");
        ("b", Trace.Bool false);
      ]
    (fun () -> ());
  let json = Trace.to_chrome_json t in
  check_bool "chrome json parses" true (json_valid json);
  check_bool "complete events" true (contains "\"ph\":\"X\"" json);
  check_bool "instant event" true (contains "\"ph\":\"i\"" json);
  check_bool "counter event" true (contains "\"ph\":\"C\"" json);
  (* NaN must not leak into the JSON as a bare token. *)
  check_bool "no nan token" false (contains "nan" json)

(* --- Metrics -------------------------------------------------------------- *)

let test_bucketing () =
  check_int "v<=0 in bucket 0" 0 (Metrics.bucket_of 0);
  check_int "negative in bucket 0" 0 (Metrics.bucket_of (-7));
  check_int "1 in bucket 1" 1 (Metrics.bucket_of 1);
  check_int "2 in bucket 2" 2 (Metrics.bucket_of 2);
  check_int "3 in bucket 2" 2 (Metrics.bucket_of 3);
  check_int "4 in bucket 3" 3 (Metrics.bucket_of 4);
  check_int "1023 in bucket 10" 10 (Metrics.bucket_of 1023);
  check_int "1024 in bucket 11" 11 (Metrics.bucket_of 1024);
  (* max_int has 62 significant bits, so it lands in bucket 62 — still
     inside the array even before clamping kicks in. *)
  check_int "max_int bucket" 62 (Metrics.bucket_of max_int);
  check_bool "every bucket in range" true
    (Metrics.bucket_of max_int < Metrics.buckets)

(* Satellite regression: the zero/negative boundary is contract.
   Every [v <= 0] lands in bucket 0 — never a negative index — and
   each power of two opens the next bucket, so bucket [k >= 1] covers
   exactly [2^(k-1) .. 2^k - 1] until the final clamp. Checked both on
   [bucket_of] directly and end-to-end through [observe]. *)
(* Histogram [name] read back through the parser and re-rendered
   compactly, so the checks on its numbers hold whatever the file's
   layout; [json_valid] stays the independent syntax check. *)
let histogram json name =
  let module Json = Hwpat_base.Json in
  match Json.parse json with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    Option.bind (Json.member "histograms" doc) (Json.member name)
    |> Option.fold ~none:"absent" ~some:Json.to_string

let test_bucket_boundaries () =
  List.iter
    (fun v ->
      check_int (Printf.sprintf "%d in bucket 0" v) 0 (Metrics.bucket_of v))
    [ 0; -1; -2; -1024; min_int ];
  for k = 1 to 62 do
    check_int
      (Printf.sprintf "2^%d opens bucket %d" (k - 1) k)
      (min (Metrics.buckets - 1) k)
      (Metrics.bucket_of (1 lsl (k - 1)));
    check_int
      (Printf.sprintf "2^%d - 1 closes bucket %d" k k)
      (min (Metrics.buckets - 1) k)
      (Metrics.bucket_of ((1 lsl k) - 1))
  done;
  (* Zero and negative observations survive the round trip into the
     histogram's bucket 0 (and the sum, which may go negative). *)
  let m = Metrics.create () in
  Metrics.observe m "h" 0;
  Metrics.observe m "h" (-5);
  Metrics.observe m "h" 3;
  let json = Metrics.to_json m in
  check_bool "metrics json parses" true (json_valid json);
  check_string "count 3, sum -2, buckets [2, 0, 1]"
    {|{"count":3,"sum":-2,"buckets":[2,0,1]}|} (histogram json "h")

(* Satellite regression: the SAT solver pre-aggregates its
   learned-clause size histogram and hands it to [add_histogram], so
   its bucketing function must be THE [Metrics.bucket_of] convention —
   same bucket for every value, same array length — or the merged
   histogram silently shears. The solver was once the deviating side. *)
let test_solver_bucket_alignment () =
  let module Solver = Hwpat_formal.Solver in
  for v = -3 to 5000 do
    check_int
      (Printf.sprintf "size_bucket %d = bucket_of %d" v v)
      (Metrics.bucket_of v) (Solver.size_bucket v)
  done;
  List.iter
    (fun v ->
      check_int
        (Printf.sprintf "size_bucket %d = bucket_of %d" v v)
        (Metrics.bucket_of v) (Solver.size_bucket v))
    [ 1 lsl 20; (1 lsl 30) - 1; 1 lsl 45; max_int; min_int ];
  (* And the histogram a real solver emits has the Metrics shape. *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  List.iter (Solver.add_clause s)
    [ [ a; b ]; [ a; -b; c ]; [ -a; c ]; [ -c; b ]; [ -a; -b; -c ] ];
  ignore (Solver.solve s);
  check_int "solver histogram is Metrics-shaped" Metrics.buckets
    (Array.length (Solver.stats s).Solver.learned_size_buckets)

let test_counters () =
  let m = Metrics.create () in
  check_int "absent counter reads 0" 0 (Metrics.counter_value m "none");
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  check_int "incr accumulates" 5 (Metrics.counter_value m "a");
  Metrics.incr Metrics.null "a";
  check_int "null counter stays 0" 0 (Metrics.counter_value Metrics.null "a");
  check_bool "null disabled" false (Metrics.enabled Metrics.null)

let test_histogram_merge () =
  let m = Metrics.create () in
  Metrics.observe m "h" 3;
  Metrics.observe m "h" 100;
  (* Merge pre-aggregated buckets the way Solver_obs does. *)
  let pre = Array.make 16 0 in
  pre.(Metrics.bucket_of 3) <- 2;
  Metrics.add_histogram m "h" ~count:2 ~sum:6 pre;
  let json = Metrics.to_json m in
  check_bool "metrics json parses" true (json_valid json);
  (* Bucket 2 holds the direct 3 plus the two merged 3s. *)
  check_string "merged count 4, sum 109, bucket 2 = 3 observations"
    {|{"count":4,"sum":109,"buckets":[0,0,3,0,0,0,0,1]}|} (histogram json "h")

let test_metrics_json_deterministic () =
  let build order =
    let m = Metrics.create () in
    List.iter (fun k -> Metrics.incr m k) order;
    Metrics.gauge m "g" 2.5;
    Metrics.to_json m
  in
  check_string "sorted keys, insertion order irrelevant"
    (build [ "b"; "a"; "c" ])
    (build [ "c"; "a"; "b" ]);
  check_bool "null metrics json parses" true
    (json_valid (Metrics.to_json Metrics.null))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and summary" `Quick
            test_span_nesting;
          Alcotest.test_case "span records on raise" `Quick
            test_span_exception;
          Alcotest.test_case "annotate innermost span" `Quick test_annotate;
          Alcotest.test_case "null trace is inert" `Quick test_null_trace;
          Alcotest.test_case "chrome json well-formed" `Quick
            test_trace_json_well_formed;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log2 bucketing" `Quick test_bucketing;
          Alcotest.test_case "solver size_bucket = Metrics.bucket_of" `Quick
            test_solver_bucket_alignment;
          Alcotest.test_case "bucket boundaries (zero/negative/powers)" `Quick
            test_bucket_boundaries;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "json deterministic and valid" `Quick
            test_metrics_json_deterministic;
        ] );
    ]
