(* The design-service daemon: JSON framing, canonical cache keys, LRU
   correctness, the worker pool, and full request/response sessions
   over socketpairs — including cached-vs-fresh byte-identity,
   concurrent clients against a shared cache, per-request deadlines,
   admission control and both shutdown paths. *)

open Hwpat_serve

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Json ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let text = {|{"b":[1,2.5,"x",true,null],"a":{"k":"\u0041"}}|} in
  match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok v ->
    check_string "compact deterministic rendering"
      {|{"b":[1,2.5,"x",true,null],"a":{"k":"A"}}|}
      (Json.to_string v);
    (* Objects break onto lines; a list breaks unless it is all
       scalars, and its flat objects (table rows) stay on one line. *)
    let v =
      Result.get_ok (Json.parse {|{"rows":[{"x":1,"y":[2]},{"x":3}],"e":[],"o":{}}|})
    in
    check_string "indented layout"
      "{\n  \"rows\": [\n    {\n      \"x\": 1,\n      \"y\": [2]\n    },\n    {\"x\": 3}\n  ],\n  \"e\": [],\n  \"o\": {}\n}\n"
      (Json.pretty v);
    check_bool "indented text parses back" true (Json.parse (Json.pretty v) = Ok v)

let test_json_rejects () =
  let bad input =
    match Json.parse input with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" input)
    | Error e ->
      check_bool "error names a byte offset" true
        (String.length e > 0
        && String.split_on_char ' ' e |> List.exists (fun w -> w = "byte"))
  in
  bad "not json";
  bad "{\"a\":1,}";
  bad "{\"a\":1} trailing";
  bad "\"unterminated";
  bad "[1,2,";
  bad "\"\\ud800\"" (* unpaired surrogate *)

let test_json_depth_capped () =
  let deep = String.make 400 '[' ^ String.make 400 ']' in
  match Json.parse deep with
  | Ok _ -> Alcotest.fail "accepted 400-deep nesting"
  | Error _ -> ()

let test_json_surrogate_pair () =
  match Json.parse "\"\\ud83d\\ude00\"" with
  | Ok (Json.String s) -> check_string "utf8" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair should decode"

let test_json_float_format () =
  check_string "integral float keeps .0" "[1.0,0.5]"
    (Json.to_string (Json.List [ Json.Float 1.0; Json.Float 0.5 ]));
  check_string "rounded to fixed decimals" "[6.0156,94.34,0.0]"
    (Json.to_string
       (Json.List
          [ Json.rounded 4 6.015625; Json.rounded 2 94.339622; Json.rounded 3 0.0004 ]))

(* --- Canon ---------------------------------------------------------------- *)

let params_of_string s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e

(* Member order, container aliases, spelled-out defaults and operation
   order/duplicates all canonicalize away: one key, one config. *)
let test_canon_orderings_same_key () =
  let a =
    params_of_string
      {|{"container":"rbuffer","target":"sram","width":8,"depth":512,"ops":["read","inc"]}|}
  in
  let b =
    params_of_string
      {|{"ops":["inc","read","inc"],"depth":512,"target":"sram","wait_states":1,"container":"read-buffer","bus":8,"width":8}|}
  in
  let ka = Canon.config_key (Canon.config_of_params a) in
  let kb = Canon.config_key (Canon.config_of_params b) in
  check_string "same canonical key" ka kb

let test_canon_distinct_keys () =
  let key s = Canon.config_key (Canon.config_of_params (params_of_string s)) in
  let a = key {|{"container":"queue","target":"fifo","width":8}|} in
  let b = key {|{"container":"queue","target":"fifo","width":16}|} in
  check_bool "width is part of the identity" true (a <> b)

let test_canon_invalid_params () =
  (match
     Canon.config_of_params
       (params_of_string {|{"container":"heap","target":"fifo"}|})
   with
  | _ -> Alcotest.fail "unknown container should be rejected"
  | exception Protocol.Error (Protocol.Invalid_params, _) -> ());
  match
    Canon.config_of_params (params_of_string {|{"container":"queue"}|})
  with
  | _ -> Alcotest.fail "missing target should be rejected"
  | exception Protocol.Error (Protocol.Invalid_params, _) -> ()

(* --- Cache ---------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~capacity:4 () in
  let computed = ref 0 in
  let v1 = Cache.find_or_add c "k" (fun () -> incr computed; 42) in
  let v2 = Cache.find_or_add c "k" (fun () -> incr computed; 43) in
  check_int "computed once" 1 !computed;
  check_int "first" 42 v1;
  check_int "second served from cache" 42 v2;
  let cnt = Cache.counters c in
  check_int "hits" 1 cnt.Cache.hits;
  check_int "misses" 1 cnt.Cache.misses

let test_cache_lru_eviction () =
  let c = Cache.create ~name:"t" ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* touch a so b becomes the least recently used *)
  check_bool "a present" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  check_bool "b evicted" true (Cache.find c "b" = None);
  check_bool "a survives" true (Cache.find c "a" = Some 1);
  check_bool "c present" true (Cache.find c "c" = Some 3);
  check_int "one eviction" 1 (Cache.counters c).Cache.evictions;
  check_int "bounded" 2 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~name:"t" ~capacity:0 () in
  let computed = ref 0 in
  ignore (Cache.find_or_add c "k" (fun () -> incr computed; 1));
  ignore (Cache.find_or_add c "k" (fun () -> incr computed; 1));
  check_int "computes every time" 2 !computed;
  check_int "retains nothing" 0 (Cache.length c)

let test_cache_failed_compute_not_inserted () =
  let c = Cache.create ~name:"t" ~capacity:4 () in
  (try
     ignore (Cache.find_or_add c "k" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_int "nothing inserted" 0 (Cache.length c);
  check_int "still a miss afterwards" 42
    (Cache.find_or_add c "k" (fun () -> 42))

(* --- Parallel.Pool -------------------------------------------------------- *)

let test_pool_runs_everything () =
  let pool = Hwpat_core.Parallel.Pool.create ~jobs:4 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    check_bool "accepted" true
      (Hwpat_core.Parallel.Pool.submit pool (fun () -> Atomic.incr hits))
  done;
  Hwpat_core.Parallel.Pool.drain pool;
  check_int "all tasks ran" 100 (Atomic.get hits);
  Hwpat_core.Parallel.Pool.shutdown pool;
  check_bool "rejects after shutdown" false
    (Hwpat_core.Parallel.Pool.submit pool (fun () -> ()))

let test_pool_survives_raising_task () =
  let pool = Hwpat_core.Parallel.Pool.create ~jobs:2 () in
  let ok = Atomic.make 0 in
  ignore (Hwpat_core.Parallel.Pool.submit pool (fun () -> failwith "boom"));
  for _ = 1 to 10 do
    ignore (Hwpat_core.Parallel.Pool.submit pool (fun () -> Atomic.incr ok))
  done;
  Hwpat_core.Parallel.Pool.drain pool;
  check_int "later tasks unaffected" 10 (Atomic.get ok);
  check_int "escape recorded" 1 (Hwpat_core.Parallel.Pool.escaped pool);
  Hwpat_core.Parallel.Pool.shutdown pool

(* --- Supervise.run_one ----------------------------------------------------- *)

let test_run_one_deadline () =
  let policy =
    {
      Hwpat_core.Supervise.retries = 0;
      backoff_s = 0.0;
      shard_timeout_s = 0.05;
    }
  in
  match
    Hwpat_core.Supervise.run_one ~policy (fun ctx ->
        let until = Unix.gettimeofday () +. 5.0 in
        while Unix.gettimeofday () < until do
          Hwpat_core.Supervise.check ctx;
          Unix.sleepf 0.001
        done)
  with
  | Hwpat_core.Supervise.Done () -> Alcotest.fail "deadline should trip"
  | Hwpat_core.Supervise.Unfinished { attempts; _ } ->
    check_int "no retries configured" 1 attempts

(* --- Server sessions over socketpairs ------------------------------------- *)

let config ?(jobs = 1) ?(cache_size = 32) ?(max_inflight = 64)
    ?(queue_bound = 32) ?(max_request_bytes = 1 lsl 20) () =
  {
    Server.jobs;
    campaign_jobs = 1;
    cache_size;
    max_inflight;
    queue_bound;
    max_request_bytes;
    trace = Hwpat_obs.Trace.null;
    metrics = Hwpat_obs.Metrics.null;
  }

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pending : string list;
}

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send c line =
  let line = line ^ "\n" in
  write_all c.fd line 0 (String.length line)

let rec recv c =
  match c.pending with
  | l :: rest ->
    c.pending <- rest;
    l
  | [] ->
    let chunk = Bytes.create 4096 in
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then Alcotest.fail "server closed the stream early";
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    (match String.rindex_opt s '\n' with
    | None -> ()
    | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      c.pending <- String.split_on_char '\n' (String.sub s 0 i));
    recv c

let rpc c line =
  send c line;
  recv c

let with_server ?(cfg = config ()) f =
  let server = Server.create cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.shutdown server)
    (fun () -> f server)

let with_conn server f =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let d =
    Domain.spawn (fun () -> Server.serve_connection server server_fd server_fd)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client_fd with Unix.Unix_error _ -> ());
      Domain.join d;
      try Unix.close server_fd with Unix.Unix_error _ -> ())
    (fun () -> f { fd = client_fd; buf = Buffer.create 1024; pending = [] })

let error_code line =
  match Json.parse line with
  | Ok doc -> (
    match Json.member "error" doc with
    | Some err -> Json.get_string err "code" ~default:""
    | None -> "")
  | Error e -> Alcotest.fail e

let is_ok line = error_code line = ""

(* A canonically repeated request is answered byte-identically whether
   it comes from the results cache or is recomputed (cache=false). *)
let test_cached_vs_fresh_identical () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let p1 =
    {|{"id":"e","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|}
  in
  let p2 =
    {|{"id":"e","method":"elaborate","params":{"depth":64,"width":8,"target":"bram","container":"queue"}}|}
  in
  let p3 =
    {|{"id":"e","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64,"cache":false}}|}
  in
  let r1 = rpc c p1 in
  let r2 = rpc c p2 in
  let r3 = rpc c p3 in
  check_bool "first answered" true (is_ok r1);
  check_string "reordered params: cache hit, same bytes" r1 r2;
  check_string "fresh recompute: same bytes" r1 r3;
  let stats = rpc c {|{"id":"s","method":"stats"}|} in
  match Json.parse stats with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let results =
      Json.member "result" doc
      |> Option.get |> Json.member "caches" |> Option.get
      |> Json.member "results" |> Option.get
    in
    check_int "one results-cache hit visible in stats" 1
      (Json.get_int results "hits" ~default:(-1))

let test_simulate_plan_cache () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let req =
    {|{"id":1,"method":"simulate","params":{"design":"blur","width":8,"height":8}}|}
  in
  let r1 = rpc c req in
  let r2 = rpc c req in
  check_bool "simulate succeeds" true (is_ok r1);
  check_string "warm request byte-identical" r1 r2;
  let fresh =
    rpc c
      {|{"id":1,"method":"simulate","params":{"design":"blur","width":8,"height":8,"cache":false}}|}
  in
  check_string "recomputed on a cached plan: same bytes" r1 fresh

(* Golden response bytes: a campaign summary and sweep candidates keep
   their members, their order and their rounding (coverage and
   access/power to 4 decimals, fmax to 2). *)
let test_golden_response_bytes () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  List.iter
    (fun (label, request, expected) -> check_string label expected (rpc c request))
    [
      ( "faultsim",
        {|{"method":"faultsim","params":{"faults":6,"frame_size":4}}|},
        {|{"id":null,"result":{"key":"faultsim/saa2vga_sram_pattern/seed=1/faults=6/frame=4","summary":{"design":"saa2vga_sram_pattern","seed":1,"monitors":6,"baseline_cycles":170,"faults":6,"detected":0,"masked":5,"silent":1,"unfinished":0,"coverage":0.0,"results":[{"fault":"@0 seu mem wbuffer_sram_array[169] bit 0","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":170},{"fault":"@11 stuck wbuffer_sram_state = 00 for 17 cycles","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":190},{"fault":"@47 seu reg rbuffer_sram_state bit 1","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":172},{"fault":"@30 seu mem rbuffer_sram_array[117] bit 6","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":170},{"fault":"@136 stuck rbuffer_begin = 000000000 for 6 cycles","outcome":"silent","detail":null,"err_flag":false,"completed":true,"cycles":170},{"fault":"@28 seu reg rbuffer_sram_rd_data bit 7","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":170}]},"coverage":0.0,"silent":1,"unfinished":0}}|} );
      ( "faultsim, coverage rounded",
        {|{"method":"faultsim","params":{"design":"saa2vga_sram_protected","faults":11,"frame_size":4}}|},
        {|{"id":null,"result":{"key":"faultsim/saa2vga_sram_protected/seed=1/faults=11/frame=4","summary":{"design":"saa2vga_sram_protected","seed":1,"monitors":6,"baseline_cycles":170,"faults":11,"detected":4,"masked":5,"silent":2,"unfinished":0,"coverage":0.6667,"results":[{"fault":"@0 seu mem out_sram_array[169] bit 4","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":170},{"fault":"@11 stuck copy_state = 00 for 17 cycles","outcome":"silent","detail":null,"err_flag":false,"completed":false,"cycles":744},{"fault":"@47 seu reg in_sram_par_err bit 0","outcome":"detected","detail":null,"err_flag":true,"completed":true,"cycles":170},{"fault":"@30 seu mem in_sram_array[117] bit 6","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":170},{"fault":"@136 stuck out_sram_waits = 0 for 6 cycles","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":175},{"fault":"@28 seu reg out_sram_wd_cnt bit 5","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":170},{"fault":"@65 seu mem in_sram_array[107] bit 7","outcome":"masked","detail":null,"err_flag":false,"completed":true,"cycles":170},{"fault":"@145 seu reg degraded bit 0","outcome":"detected","detail":null,"err_flag":true,"completed":true,"cycles":170},{"fault":"@86 seu reg wbuffer_state bit 1","outcome":"silent","detail":null,"err_flag":false,"completed":false,"cycles":744},{"fault":"@3 seu reg out_sram_par_err bit 0","outcome":"detected","detail":null,"err_flag":true,"completed":true,"cycles":170},{"fault":"@155 seu reg out_sram_state bit 1","outcome":"detected","detail":"cycle 155: [out_sram] ack: ack asserted with no request pending","err_flag":false,"completed":true,"cycles":170}]},"coverage":0.666666666667,"silent":2,"unfinished":0}}|} );
      ( "one-point sweep",
        {|{"method":"sweep","params":{"points":[{"container":"queue","target":"sram","width":8,"depth":16,"wait_states":1}]}}|},
        {|{"id":null,"result":{"key":"sweep/queue/sram/8x16/ws1","points":1,"unmeasurable":0,"candidates":[{"label":"queue/sram/8x16/ws1","container":"queue","target":"sram","elem_width":8,"depth":16,"luts":90,"ffs":26,"brams":0,"measured":true,"access_cycles":6.0156,"fmax_mhz":94.34,"power_mw":35.625}]}}|} );
    ]

(* Tiny LRU: evicting circuits must never change what a later request
   for the evicted key answers. *)
let test_eviction_correctness () =
  with_server ~cfg:(config ~cache_size:1 ()) @@ fun server ->
  with_conn server @@ fun c ->
  let e w =
    Printf.sprintf
      {|{"id":"e%d","method":"elaborate","params":{"container":"queue","target":"bram","width":%d,"depth":64}}|}
      w w
  in
  let first8 = rpc c (e 8) in
  let first16 = rpc c (e 16) in
  let again8 = rpc c (e 8) in
  let again16 = rpc c (e 16) in
  check_bool "distinct configs differ" true (first8 <> first16);
  check_string "recomputed after eviction: same bytes" first8 again8;
  check_string "and for the other key" first16 again16;
  let stats = rpc c {|{"id":"s","method":"stats"}|} in
  match Json.parse stats with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let circuits =
      Json.member "result" doc
      |> Option.get |> Json.member "caches" |> Option.get
      |> Json.member "circuits" |> Option.get
    in
    check_bool "evictions recorded" true
      (Json.get_int circuits "evictions" ~default:0 >= 1);
    check_int "capacity respected" 1
      (Json.get_int circuits "entries" ~default:(-1))

(* N concurrent clients hammering a shared cache get exactly the
   responses a serial session gets. *)
let test_parallel_clients_equal_serial () =
  let script =
    [
      {|{"id":1,"method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|};
      {|{"id":2,"method":"simulate","params":{"design":"blur","width":8,"height":8}}|};
      {|{"id":3,"method":"elaborate","params":{"container":"stack","target":"lifo","width":8,"depth":64}}|};
      {|{"id":4,"method":"simulate","params":{"design":"saa2vga-fifo","width":8,"height":8}}|};
      {|{"id":5,"method":"ping"}|};
    ]
  in
  let run_script c = List.map (rpc c) script in
  let serial =
    with_server @@ fun server -> with_conn server @@ run_script
  in
  with_server ~cfg:(config ~jobs:4 ()) @@ fun server ->
  let domains =
    List.init 4 (fun _ ->
        let client_fd, server_fd =
          Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
        in
        let sd =
          Domain.spawn (fun () ->
              Server.serve_connection server server_fd server_fd)
        in
        let cd =
          Domain.spawn (fun () ->
              let c = { fd = client_fd; buf = Buffer.create 1024; pending = [] } in
              let rs = run_script c in
              Unix.close client_fd;
              rs)
        in
        (sd, cd, server_fd))
  in
  List.iter
    (fun (sd, cd, server_fd) ->
      let responses = Domain.join cd in
      Domain.join sd;
      (try Unix.close server_fd with Unix.Unix_error _ -> ());
      List.iter2
        (fun expected got -> check_string "matches serial session" expected got)
        serial responses)
    domains

(* A deadline-cancelled request answers [deadline] and leaves the pool
   and caches serving later requests normally. *)
let test_deadline_leaves_server_healthy () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let r =
    rpc c {|{"id":1,"method":"sleep","params":{"seconds":30.0,"deadline_s":0.1}}|}
  in
  check_string "deadline error" "deadline" (error_code r);
  let r2 = rpc c {|{"id":2,"method":"ping"}|} in
  check_bool "pool healthy afterwards" true (is_ok r2);
  let r3 =
    rpc c
      {|{"id":3,"method":"simulate","params":{"design":"blur","width":8,"height":8}}|}
  in
  check_bool "pipeline healthy afterwards" true (is_ok r3)

let test_oversized_line () =
  with_server ~cfg:(config ~max_request_bytes:300 ()) @@ fun server ->
  with_conn server @@ fun c ->
  let long =
    Printf.sprintf {|{"id":1,"method":"ping","params":{"pad":"%s"}}|}
      (String.make 400 'x')
  in
  let r = rpc c long in
  check_string "oversized rejected" "oversized" (error_code r);
  let r2 = rpc c {|{"id":2,"method":"ping"}|} in
  check_bool "next request unaffected" true (is_ok r2)

let test_overload_rejection () =
  with_server ~cfg:(config ~jobs:1 ~max_inflight:2 ~queue_bound:2 ())
  @@ fun server ->
  with_conn server @@ fun c ->
  send c {|{"id":1,"method":"sleep","params":{"seconds":0.3}}|};
  send c {|{"id":2,"method":"sleep","params":{"seconds":0.3}}|};
  send c {|{"id":3,"method":"ping"}|};
  let r1 = recv c in
  let r2 = recv c in
  let r3 = recv c in
  check_bool "first admitted" true (is_ok r1);
  check_bool "second admitted" true (is_ok r2);
  check_string "third rejected cleanly" "overloaded" (error_code r3);
  let r4 = rpc c {|{"id":4,"method":"ping"}|} in
  check_bool "accepts again once drained" true (is_ok r4)

(* Stop ends intake: once the server is stopping, a connection only
   processes what it has already read, so the post-shutdown request
   must ride the same write as the shutdown itself to be answered (a
   later write would meet a drained, closed stream instead). *)
let test_shutdown_method () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let lines =
    {|{"id":1,"method":"elaborate","params":{"container":"queue","target":"fifo","width":8,"depth":64}}|}
    ^ "\n" ^ {|{"id":2,"method":"shutdown"}|} ^ "\n"
    ^ {|{"id":3,"method":"ping"}|} ^ "\n"
  in
  write_all c.fd lines 0 (String.length lines);
  let r1 = recv c in
  let r2 = recv c in
  let r3 = recv c in
  check_bool "request before shutdown served" true (is_ok r1);
  check_bool "shutdown acknowledged" true (is_ok r2);
  check_string "after shutdown: rejected" "shutting-down" (error_code r3);
  check_bool "server stopping" true (Server.stopping server)

let test_batch_request () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let r =
    rpc c
      {|{"id":1,"method":"batch","params":{"requests":[{"method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}},{"method":"elaborate","params":{"depth":64,"width":8,"target":"bram","container":"queue"}},{"method":"nope"}]}}|}
  in
  match Json.parse r with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let result = Json.member "result" doc |> Option.get in
    check_int "all items answered" 3 (Json.get_int result "count" ~default:0);
    (match Json.get_list_opt result "results" with
    | Some [ a; b; bad ] ->
      check_string "canonically equal items answered identically"
        (Json.to_string a) (Json.to_string b);
      check_bool "bad item reports its error in place" true
        (Json.member "error" bad <> None)
    | _ -> Alcotest.fail "expected three batch items")

let test_faultsim_request_cached () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let req =
    {|{"id":1,"method":"faultsim","params":{"design":"saa2vga_sram_pattern","faults":3,"frame_size":6}}|}
  in
  let r1 = rpc c req in
  check_bool "campaign ran" true (is_ok r1);
  let r2 = rpc c req in
  check_string "campaign summary served from cache, same bytes" r1 r2

let test_unix_socket_listener () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hwpat_serve_test_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let server = Server.create (config ()) in
  let listener = Domain.spawn (fun () -> Server.run_socket server ~path) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check_bool "socket appears" true (Sys.file_exists path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let c = { fd; buf = Buffer.create 256; pending = [] } in
  let r = rpc c {|{"id":1,"method":"ping"}|} in
  check_bool "ping over the socket" true (is_ok r);
  let r2 = rpc c {|{"id":2,"method":"shutdown"}|} in
  check_bool "shutdown over the socket" true (is_ok r2);
  Unix.close fd;
  Domain.join listener;
  check_bool "socket file removed on exit" false (Sys.file_exists path)

(* A client that disconnects before reading its responses must not
   kill the daemon (SIGPIPE is ignored) or wedge it (the write error
   must release the connection mutex and drop the parked responses):
   the connection drains, and a later client is served normally. *)
let test_dead_client_harmless () =
  with_server @@ fun server ->
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let d =
    Domain.spawn (fun () -> Server.serve_connection server server_fd server_fd)
  in
  let req =
    {|{"id":"x","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|}
    ^ "\n"
  in
  write_all client_fd req 0 (String.length req);
  write_all client_fd req 0 (String.length req);
  (* gone before reading either response *)
  Unix.close client_fd;
  Domain.join d;
  (try Unix.close server_fd with Unix.Unix_error _ -> ());
  with_conn server @@ fun c ->
  check_bool "server still answers a fresh connection" true
    (is_ok
       (rpc c
          {|{"id":"y","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|}))

(* run_socket must not displace whatever already lives at the path
   unless it is a stale socket. *)
let test_socket_path_not_clobbered () =
  let path = Filename.temp_file "hwpat_serve_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      with_server @@ fun server ->
      (match Server.run_socket server ~path with
      | () -> Alcotest.fail "expected Failure on a non-socket path"
      | exception Failure _ -> ());
      check_bool "existing file left in place" true (Sys.file_exists path))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "parse/print round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick test_json_rejects;
          Alcotest.test_case "nesting depth capped" `Quick test_json_depth_capped;
          Alcotest.test_case "surrogate pairs decode" `Quick
            test_json_surrogate_pair;
          Alcotest.test_case "float format fixed" `Quick test_json_float_format;
        ] );
      ( "canon",
        [
          Alcotest.test_case "orderings and aliases share a key" `Quick
            test_canon_orderings_same_key;
          Alcotest.test_case "different configs differ" `Quick
            test_canon_distinct_keys;
          Alcotest.test_case "invalid params rejected" `Quick
            test_canon_invalid_params;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU evicts the right entry" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "failed compute not inserted" `Quick
            test_cache_failed_compute_not_inserted;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs everything, rejects after shutdown" `Quick
            test_pool_runs_everything;
          Alcotest.test_case "survives raising tasks" `Quick
            test_pool_survives_raising_task;
          Alcotest.test_case "run_one deadline" `Quick test_run_one_deadline;
        ] );
      ( "server",
        [
          Alcotest.test_case "cached vs fresh byte-identical" `Quick
            test_cached_vs_fresh_identical;
          Alcotest.test_case "warm simulate byte-identical" `Quick
            test_simulate_plan_cache;
          Alcotest.test_case "tiny LRU stays correct" `Quick
            test_eviction_correctness;
          Alcotest.test_case "4 clients equal serial" `Quick
            test_parallel_clients_equal_serial;
          Alcotest.test_case "deadline leaves server healthy" `Quick
            test_deadline_leaves_server_healthy;
          Alcotest.test_case "oversized line rejected" `Quick
            test_oversized_line;
          Alcotest.test_case "overload rejected cleanly" `Quick
            test_overload_rejection;
          Alcotest.test_case "shutdown method drains" `Quick
            test_shutdown_method;
          Alcotest.test_case "batch answers every item" `Quick
            test_batch_request;
          Alcotest.test_case "faultsim campaign cached" `Quick
            test_faultsim_request_cached;
          Alcotest.test_case "unix socket listener" `Quick
            test_unix_socket_listener;
          Alcotest.test_case "dead client harmless" `Quick
            test_dead_client_harmless;
          Alcotest.test_case "non-socket path not clobbered" `Quick
            test_socket_path_not_clobbered;
          Alcotest.test_case "faultsim and sweep bytes pinned" `Quick
            test_golden_response_bytes;
        ] );
    ]
