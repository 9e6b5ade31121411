(* serve_mix: the [hwpat serve] daemon, run as its own process on a
   Unix socket, under seeded open-loop traffic at a fixed offered rate
   over [connections] connections.  Every response is checked byte for
   byte against the same request answered in process by [Handlers]. *)

open Hwpat_serve
open Common
module Stats = Perfbench.Stats
module Uids = Perfbench.Uids

(* Offered rate (requests per second): half the capacity measured on a
   2-core machine (see README), so requests overlap and queue behind
   one another's misses while the backlog stays stationary. *)
let default_rate = 60.0

(* One connection to a daemon with one worker domain: with two of each
   the run-to-run medians moved with the host's load by up to 1.8x
   between runs (see README). *)
let connections = 1
let daemon_jobs = 1

(* Untimed requests of the same traffic that bring the caches to their
   steady state first: over a hundred misses for 32-entry caches. *)
let warmup = 200

(* ---- Traffic ----------------------------------------------------------- *)

let obj kvs = Json.Obj kvs
let str s = Json.String s
let int i = Json.Int i

let product2 xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let configs =
  List.map
    (fun ((c, t), (w, d)) ->
      [ ("container", str c); ("target", str t); ("width", int w); ("depth", int d) ])
    (product2
       [ ("queue", "fifo"); ("queue", "bram"); ("queue", "sram"); ("stack", "lifo");
         ("stack", "bram"); ("stack", "sram"); ("vector", "bram"); ("vector", "sram") ]
       (product2 [ 4; 8; 16 ] [ 16; 64; 256 ]))

let video_designs = [ "saa2vga-fifo"; "saa2vga-sram"; "blur" ]

(* Each method's key space: every combination of a few values of each
   parameter the method takes, 346 keys in all against the daemon's
   32-entry caches, so the skewed traffic both hits and evicts.  The
   six methods are equally likely. *)
let key_spaces =
  [
    ("elaborate", List.map obj configs);
    ( "codegen",
      List.concat_map
        (fun c -> List.map (fun u -> obj (c @ [ ("unit", str u) ])) [ "container"; "iterator" ])
        configs );
    ( "emit",
      List.map
        (fun ((d, s), (l, o)) ->
          obj [ ("design", str d); ("style", str s); ("lang", str l); ("optimize", Json.Bool o) ])
        (product2 (product2 video_designs [ "pattern"; "custom" ])
           (product2 [ "vhdl"; "verilog" ] [ false; true ])) );
    ( "simulate",
      List.map
        (fun ((d, s), (n, p)) ->
          obj [ ("design", str d); ("style", str s); ("width", int n); ("height", int n);
                ("pattern", str p) ])
        (product2 (product2 video_designs [ "pattern"; "custom" ])
           (product2 [ 8; 10; 12 ] [ "gradient"; "checker"; "random"; "bars" ])) );
    ( "faultsim",
      List.map
        (fun (d, seed) ->
          obj [ ("design", str d); ("seed", int seed); ("faults", int 8);
                ("frame_size", int 8); ("lanes", int 64) ])
        (product2 [ "saa2vga_sram_protected"; "saa2vga_sram_pattern"; "saa2vga_fifo_pattern" ]
           [ 1; 2; 3; 4; 5; 6 ]) );
    ( "sweep",
      List.map
        (fun ((c, t), (w, d)) ->
          obj [ ("points", Json.List [ obj [ ("container", str c); ("target", str t);
                                             ("width", int w); ("depth", int d) ] ]) ])
        (product2 [ ("queue", "fifo"); ("queue", "bram"); ("stack", "lifo"); ("stack", "bram") ]
           (product2 [ 8; 16 ] [ 64; 512 ])) );
  ]

(* Key popularity within a method: Zipf's law in its classic form
   (exponent 1), in a fixed random order of the keys. *)
let zipf_s = 1.0

type request = { meth : string; params : string; line : string }

let traffic n =
  (* The request sequence is part of the workload and fixed, so every
     run sees the same hits, misses and evictions; the seed draws the
     arrival times (see [schedule]). *)
  let order = Random.State.make [| 0x6b6579 |] in
  let spaces =
    List.map
      (fun (meth, keys) ->
        let keys = Array.of_list (List.map Json.to_string keys) in
        for i = Array.length keys - 1 downto 1 do
          let j = Random.State.int order (i + 1) in
          let t = keys.(i) in
          keys.(i) <- keys.(j);
          keys.(j) <- t
        done;
        let cdf = Array.make (Array.length keys) 0.0 in
        let total = ref 0.0 in
        Array.iteri
          (fun r _ ->
            total := !total +. (1.0 /. (float_of_int (r + 1) ** zipf_s));
            cdf.(r) <- !total)
          keys;
        (meth, keys, Array.map (fun c -> c /. !total) cdf))
      key_spaces
  in
  let spaces = Array.of_list spaces in
  let rng = Random.State.make [| 0x7365 |] in
  Array.init n (fun id ->
      let meth, keys, cdf = spaces.(Random.State.int rng (Array.length spaces)) in
      let u = Random.State.float rng 1.0 in
      let r = ref 0 in
      while !r < Array.length cdf - 1 && cdf.(!r) < u do incr r done;
      let params = keys.(!r) in
      { meth; params;
        line = Printf.sprintf "{\"id\":%d,\"method\":\"%s\",\"params\":%s}" id meth params })

(* Poisson arrivals at [rate] conditioned on their count: [n] send
   offsets drawn uniformly over the [n / rate] second window, sorted. *)
let schedule seed rate n =
  let rng = Random.State.make [| 0x706f; seed |] in
  let span = float_of_int n /. rate in
  let a = Array.init n (fun _ -> Random.State.float rng span) in
  Array.sort compare a;
  a

(* ---- The daemon -------------------------------------------------------- *)

let daemon_exe () =
  let default = Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)) in
  Filename.concat default (Filename.concat "bin" "hwpat.exe")

let socket_path () =
  let dir = ".bench_build" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

type daemon = { pid : int; path : string }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let start_daemon path =
  let exe = daemon_exe () in
  if not (Sys.file_exists exe) then failwith ("no daemon binary at " ^ exe);
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; path; "--jobs"; string_of_int daemon_jobs;
         "--max-inflight"; "100000"; "--queue-bound"; "100000" |]
      null null null
  in
  Unix.close null;
  let deadline = now () +. 30.0 in
  let rec ready () =
    match connect path with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.002;
      ready ()
  in
  (try ready ()
   with e ->
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     raise e);
  { pid; path }

(* SIGINT drains the daemon; it exits and removes its socket. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigint;
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  if Sys.file_exists d.path then Sys.remove d.path

(* ---- Open-loop client --------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

type exchange = {
  timing : Stats.request;
  response : string option;
}

(* Send [lines.(i)] at [t0 +. offsets.(i)] round-robin over [fds] from
   this one thread, reading responses whenever none is due.  Responses
   on one connection come back in request order. *)
let open_loop fds lines offsets =
  let n = Array.length lines in
  let nc = Array.length fds in
  let sent = Array.make n 0.0 and received = Array.make n None in
  let responses = Array.make n None in
  let pending = Array.init nc (fun _ -> Queue.create ()) in
  let bufs = Array.init nc (fun _ -> Buffer.create 65536) in
  let chunk = Bytes.create 65536 in
  let next = ref 0 and got = ref 0 and closed = ref false in
  let t0 = now () in
  let hard_stop = t0 +. (if n = 0 then 0.0 else offsets.(n - 1)) +. 60.0 in
  let conn_of fd =
    let rec find i = if fds.(i) = fd then i else find (i + 1) in
    find 0
  in
  while !got < n && (not !closed) && now () < hard_stop do
    while !next < n && t0 +. offsets.(!next) <= now () do
      let c = !next mod nc in
      write_all fds.(c) (lines.(!next) ^ "\n");
      sent.(!next) <- now ();
      Queue.push !next pending.(c);
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0.0 (t0 +. offsets.(!next) -. now ()) else 0.1
    in
    match Unix.select (Array.to_list fds) [] [] timeout with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          let c = conn_of fd in
          let r = Unix.read fd chunk 0 (Bytes.length chunk) in
          let t = now () in
          if r = 0 then closed := true
          else begin
            Buffer.add_subbytes bufs.(c) chunk 0 r;
            let data = Buffer.contents bufs.(c) in
            let parts = String.split_on_char '\n' data in
            let rec take = function
              | [ rest ] ->
                Buffer.clear bufs.(c);
                Buffer.add_string bufs.(c) rest
              | line :: rest ->
                (match Queue.take_opt pending.(c) with
                | Some i ->
                  received.(i) <- Some t;
                  responses.(i) <- Some line;
                  incr got
                | None -> closed := true);
                take rest
              | [] -> ()
            in
            take parts
          end)
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.init n (fun i ->
      {
        timing =
          { Stats.scheduled = t0 +. offsets.(i); sent = sent.(i); received = received.(i) };
        response = responses.(i);
      })

let stats_request fd =
  write_all fd "{\"id\":\"stats\",\"method\":\"stats\"}\n";
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec read () =
    let r = Unix.read fd chunk 0 (Bytes.length chunk) in
    if r = 0 then failwith "daemon closed the connection";
    Buffer.add_subbytes buf chunk 0 r;
    if not (String.contains (Buffer.contents buf) '\n') then read ()
  in
  read ();
  match Json.parse (String.trim (Buffer.contents buf)) with
  | Ok j -> Option.value (Json.member "result" j) ~default:Json.Null
  | Error e -> failwith ("bad stats response: " ^ e)

let cache_counter stats cache field =
  match Json.member "caches" stats with
  | Some caches -> (
    match Json.member cache caches with
    | Some c -> Json.get_int c field ~default:0
    | None -> 0)
  | None -> 0

(* ---- In-process answers ------------------------------------------------ *)

let no_deadline = { Hwpat_core.Supervise.retries = 0; backoff_s = 0.0; shard_timeout_s = 0.0 }

(* One request through the daemon's layers, in process: parse,
   validate, dispatch, serialise — the daemon's success response, or
   [None] if it would answer with an error. *)
let answer ?(now = now) handlers line =
  let clock = ref (now ()) in
  let lap () =
    let t = now () in
    let d = t -. !clock in
    clock := t;
    d
  in
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    match Protocol.parse_request j with
    | Error _ -> None
    | Ok req -> (
      let t_parse = lap () in
      match
        Hwpat_core.Supervise.run_one ~policy:no_deadline (fun ctx ->
            Handlers.handle handlers ctx req)
      with
      | Hwpat_core.Supervise.Done result ->
        let t_handle = lap () in
        let resp = Protocol.response_ok ~id:req.Protocol.id result in
        Some (resp, t_parse, t_handle, lap ())
      | _ -> None
      | exception Terminated -> raise Terminated
      | exception _ -> None))

(* A response line without its leading {"id":<n> member. *)
let without_id resp =
  Option.map
    (fun c -> String.sub resp c (String.length resp - c))
    (String.index_opt resp ',')

(* What the daemon must answer to a request: the id-less tail of the
   in-process response line ([None] where the daemon should not
   succeed) and, for emit, which numbers in it are signal uids. *)
type expected = { tail : string option; uids : Uids.mask option }

(* Computed once per distinct request.  Each emit request is answered
   a second time by fresh [Handlers] — the uid counters have moved on
   by then — and the numbers that differ between the two answers are
   the uids. *)
let expected_answers requests =
  let handlers = Handlers.create ~cache_size:100_000 () in
  let tail_of h r = Option.bind (answer h r.line) (fun (resp, _, _, _) -> without_id resp) in
  let memo = Hashtbl.create 512 in
  Array.map
    (fun r ->
      let key = r.meth ^ " " ^ r.params in
      match Hashtbl.find_opt memo key with
      | Some e -> e
      | None ->
        let tail = tail_of handlers r in
        let uids =
          if r.meth <> "emit" then None
          else
            match (tail, tail_of (Handlers.create ()) r) with
            | Some a, Some b -> Uids.uid_mask a b
            | _ -> None
        in
        let e = { tail; uids } in
        Hashtbl.add memo key e;
        e)
    requests

type check = { failed : int; emit_uid_only : int }

(* Responses that are missing or differ from the in-process answer;
   [first_id] is the id of [exchanges.(0)].  An emit response that
   differs from it only by a one-to-one renaming of the signal uids is
   counted in [emit_uid_only], not as a failure. *)
let check ~first_id exchanges expected =
  Array.fold_left
    (fun acc (i, ex) ->
      let id = first_id + i in
      match (ex.response, expected.(id)) with
      | Some got, { tail = Some tail; uids } ->
        let want = Printf.sprintf "{\"id\":%d" id ^ tail in
        if got = want then acc
        else if
          match uids with
          | Some m -> Uids.equal_but_uids m ~expected:want got
          | None -> false
        then { acc with emit_uid_only = acc.emit_uid_only + 1 }
        else { acc with failed = acc.failed + 1 }
      | _ -> { acc with failed = acc.failed + 1 })
    { failed = 0; emit_uid_only = 0 }
    (Array.mapi (fun i ex -> (i, ex)) exchanges)

(* ---- The workload ------------------------------------------------------- *)

type daemon_run = {
  setup_s : float;
  warm : exchange array;
  timed : exchange array;
  rss_mb : float;
  cpu_s : float;  (** daemon CPU time over the timed window *)
  before : Json.t;  (** daemon stats before the timed window *)
  after : Json.t;
}

let drive_daemon requests offsets =
  let path = socket_path () in
  let lines a = Array.map (fun r -> r.line) a in
  (* Set-up (daemon start to a warm cache) runs three times, each on a
     fresh daemon; its figure is the CPU time of the daemon and of this
     process, median of the three, and the last daemon serves the timed
     window.  Warm-up requests go one at a time, so each session sees the
     same hits and misses. *)
  let session () =
    let c0 = process_cpu_s () in
    let d = start_daemon path in
    match
      let fds = Array.init connections (fun _ -> connect path) in
      let one line = (open_loop [| fds.(0) |] [| line |] [| 0.0 |]).(0) in
      (fds, Array.map one (lines (Array.sub requests 0 warmup)))
    with
    | fds, warm -> (d, fds, warm, process_cpu_s () -. c0 +. cpu_s d.pid)
    | exception e ->
      stop_daemon d;
      raise e
  in
  let close (d, fds, _, _) =
    Array.iter Unix.close fds;
    stop_daemon d
  in
  let first =
    List.init 2 (fun _ ->
        let ((_, _, _, t) as s) = session () in
        close s;
        t)
  in
  let ((d, fds, warm, t_last) as last) = session () in
  Fun.protect ~finally:(fun () -> close last) @@ fun () ->
  let before = stats_request fds.(0) in
  let cpu0 = cpu_s d.pid in
  let timed =
    open_loop fds (lines (Array.sub requests warmup (Array.length offsets))) offsets
  in
  let cpu_s = cpu_s d.pid -. cpu0 in
  let after = stats_request fds.(0) in
  {
    setup_s = Stats.median (t_last :: first);
    warm;
    timed;
    rss_mb = peak_rss_mb ~pid:(string_of_int d.pid) ();
    cpu_s;
    before;
    after;
  }

let checks dr expected =
  let a = check ~first_id:0 dr.warm expected
  and b = check ~first_id:warmup dr.timed expected in
  { failed = a.failed + b.failed; emit_uid_only = a.emit_uid_only + b.emit_uid_only }

let uid_note c =
  Printf.sprintf
    "responses differing from the in-process answer only in emitted signal \
     uids: %d (not counted as failures; see README)"
    c.emit_uid_only

let latency_ms (ex : exchange) = Stats.latency ex.timing *. 1000.0

let hit_share dr =
  let delta field =
    float_of_int (cache_counter dr.after "results" field - cache_counter dr.before "results" field)
  in
  delta "hits" /. (delta "hits" +. delta "misses")

(* The replay answers the whole stream in order through a fresh
   [Handlers] with the daemon's cache size, timing each layer. *)
type replayed = {
  parse : float;
  handle : float;
  serialise : float;
  hit : bool;
}

let replay requests =
  let handlers = Handlers.create () in
  let results_hits () = (Cache.counters handlers.Handlers.results).Cache.hits in
  Array.map
    (fun r ->
      let h0 = results_hits () in
      match answer handlers r.line with
      | Some (_, parse, handle, serialise) ->
        { parse; handle; serialise; hit = results_hits () > h0 }
      | None -> { parse = 0.0; handle = 0.0; serialise = 0.0; hit = false })
    requests

let run ?(rate = default_rate) ~seed ~seconds ~trace () =
  let n = max 20 (int_of_float (Float.round (rate *. seconds))) in
  let requests = traffic (warmup + n) in
  let offsets = schedule seed rate n in
  let dr = drive_daemon requests offsets in
  let ok (ex : exchange) = ex.response <> None in
  let lat = Array.to_list (Array.map latency_ms dr.timed) in
  let answered = Array.fold_left (fun a ex -> if ok ex then a + 1 else a) 0 dr.timed in
  let backlog = Stats.backlog_growing (Array.to_list (Array.map (fun e -> e.timing) dr.timed)) in
  let notes =
    [
      Printf.sprintf
        "serve_mix: %g req/s offered (Poisson) over %d connections, %d timed + %d warm-up \
         requests"
        rate connections n warmup;
      Printf.sprintf "results-cache hit share in the timed window: %.3f" (hit_share dr);
      Printf.sprintf "backlog growing: %b" backlog;
      Printf.sprintf
        "work_per_s = responses per daemon CPU-second (%.3f s over the timed \
         requests)"
        dr.cpu_s;
      tail_note "requests" lat;
    ]
  in
  let c = checks dr (expected_answers requests) in
  if not trace then begin
    {
      attempted = warmup + n;
      failed = c.failed;
      e2e =
        [
          metric "setup_s" "s" dr.setup_s;
          metric "peak_rss_mb" "MB" dr.rss_mb;
          metric "work_per_s" "1/s" (float_of_int answered /. dr.cpu_s);
        ];
      layers = [];
      notes = notes @ [ uid_note c ];
    }
  end
  else begin
    let (replayed : replayed array), wall = time (fun () -> replay requests) in
    (* The same stream again without the per-layer clocks. *)
    let (), bare =
      time (fun () ->
          let handlers = Handlers.create () in
          Array.iter
            (fun r -> ignore (answer ~now:(fun () -> 0.0) handlers r.line))
            requests)
    in
    let timed = Array.to_list (Array.sub replayed warmup n) in
    let med f xs = if xs = [] then 0.0 else Stats.median (List.map f xs) in
    let handle_ms meth hit =
      let xs =
        List.filteri
          (fun i (x : replayed) -> requests.(warmup + i).meth = meth && x.hit = hit)
          timed
      in
      med (fun (x : replayed) -> x.handle *. 1000.0) xs
    in
    let service = List.map (fun (x : replayed) -> x.parse +. x.handle +. x.serialise) timed in
    let waits =
      List.map2 (fun ex s -> Float.max 0.0 (latency_ms ex -. (s *. 1000.0)))
        (Array.to_list dr.timed) service
    in
    let late = Array.to_list (Array.map (fun ex -> Stats.lateness ex.timing *. 1000.0) dr.timed) in
    let cache name =
      let hits = cache_counter dr.after name "hits" and misses = cache_counter dr.after name "misses" in
      [
        metric (Printf.sprintf "serve.cache.%s.hit_rate" name) "ratio"
          (float_of_int hits /. float_of_int (max 1 (hits + misses)));
        metric (Printf.sprintf "serve.cache.%s.evictions" name) "count"
          (float_of_int (cache_counter dr.after name "evictions"));
      ]
    in
    let layered =
      Array.fold_left (fun a (x : replayed) -> a +. x.parse +. x.handle +. x.serialise) 0.0 replayed
    in
    {
      attempted = warmup + n;
      failed = c.failed;
      e2e = [];
      layers =
        [
          metric "serve.parse_us" "us" (med (fun (x : replayed) -> x.parse *. 1e6) timed);
          metric "serve.serialise_us" "us" (med (fun (x : replayed) -> x.serialise *. 1e6) timed);
        ]
        @ List.concat_map
            (fun (meth, _) ->
              [
                metric (Printf.sprintf "serve.handle_ms.%s.hit" meth) "ms" (handle_ms meth true);
                metric (Printf.sprintf "serve.handle_ms.%s.miss" meth) "ms" (handle_ms meth false);
              ])
            key_spaces
        @ cache "results" @ cache "plans" @ cache "circuits"
        @ [
            metric "serve.hit_share" "ratio"
              (float_of_int (List.length (List.filter (fun (x : replayed) -> x.hit) timed))
              /. float_of_int n);
            metric "serve.queue_wait_ms_p50" "ms" (Stats.median waits);
            metric "serve.queue_wait_ms_tail" "ms" (tail_value waits);
            metric "loadgen.late_ms_tail" "ms" (tail_value late);
            metric "serve.backlog_growing" "count" (if backlog then 1.0 else 0.0);
            metric "serve.emit_uid_only" "count" (float_of_int c.emit_uid_only);
          ]
        @ tail_layers lat
        @ [
            metric "unattributed_pct" "%" (100.0 *. (wall -. layered) /. wall);
            metric "trace_overhead_pct" "%" (100.0 *. ((wall /. bare) -. 1.0));
          ];
      notes = notes @ [ uid_note c ];
    }
  end
