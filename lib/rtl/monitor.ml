(* Runtime protocol monitors over a Cyclesim instance. *)

type violation = { cycle : int; monitor : string; signal : string; message : string }

let pp_violation fmt v =
  Format.fprintf fmt "cycle %d: [%s] %s: %s" v.cycle v.monitor v.signal v.message

(* A watched signal.  Its value is read, once per sample, into the
   ring slot of that tick ([window] slots, tick [c] at [c mod window]),
   and [now] points at the slot just written: the checks read [now], and
   {!vcd_window} reads the ring.  Sampling therefore allocates nothing. *)
type tracked = {
  signal : Signal.t;
  label : string;
  read : Bits.t -> unit;
  ring : Bits.t array;
  mutable now : Bits.t;
  since : int; (* first tick sampled *)
}

type t = {
  sim : Cyclesim.t;
  window : int;
  mutable tracked : tracked list; (* reverse attach order *)
  mutable checks : (int -> unit) list; (* attach order *)
  mutable violations : violation list; (* newest first *)
  mutable ticks : int;
}

let create ?(window = 48) sim =
  if window < 0 then invalid_arg "Monitor.create: negative window";
  { sim; window; tracked = []; checks = []; violations = []; ticks = 0 }

let violate t cycle monitor signal message =
  t.violations <- { cycle; monitor; signal; message } :: t.violations

let violations t = List.rev t.violations
let ok t = t.violations = []

let first_violation t =
  match List.rev t.violations with v :: _ -> Some v | [] -> None

(* The tracked record of [s], watching it under [label] unless it
   already is. *)
let watch t label s =
  match List.find_opt (fun tr -> Signal.uid tr.signal = Signal.uid s) t.tracked with
  | Some tr -> tr
  | None ->
    let ring = Array.init (max 1 t.window) (fun _ -> Bits.zero (Signal.width s)) in
    let tr =
      { signal = s; label; read = Cyclesim.reader t.sim s; ring; now = ring.(0);
        since = t.ticks }
    in
    t.tracked <- tr :: t.tracked;
    tr

let add_check t check = t.checks <- t.checks @ [ check ]
let value_bool tr = Bits.to_bool tr.now

(* --- Checkers ----------------------------------------------------------- *)

(* The library-wide req/ack convention (see Handshake): the requester
   holds [req] high, with any payload stable, until the cycle where
   [ack] is high; [ack] never fires without a request pending. *)
let add_handshake t ~name ?payload ~req ~ack () =
  let req = watch t (name ^ "_req") req in
  let ack = watch t (name ^ "_ack") ack in
  let payload =
    Option.map
      (fun p ->
        (watch t (name ^ "_payload") p, Bits.zero (Signal.width p)))
      payload
  in
  let prev_req = ref false and prev_ack = ref false in
  let check cycle =
    let r = value_bool req and a = value_bool ack in
    if a && not r then
      violate t cycle name "ack" "ack asserted with no request pending";
    (* [prev_req] is false on the first sample, so the payload rule
       never compares against the zeroed [before] buffer. *)
    if !prev_req && not !prev_ack then begin
      if not r then
        violate t cycle name "req" "request dropped before acknowledge";
      match payload with
      | Some (p, before) when r && not (Bits.equal p.now before) ->
        violate t cycle name "payload" "payload changed while request pending"
      | _ -> ()
    end;
    prev_req := r;
    prev_ack := a;
    match payload with
    | Some (p, before) -> Bits.blit ~src:p.now ~dst:before
    | None -> ()
  in
  add_check t check

(* Iterator-op sequencing: each operation obeys the handshake rule and
   operations declared mutually exclusive never fire together. *)
let add_iterator t ~name ?(mutex = []) ~ops () =
  List.iter
    (fun (op, req, ack) -> add_handshake t ~name:(name ^ "." ^ op) ~req ~ack ())
    ops;
  List.iter
    (fun (label, a, b) ->
      let a = watch t (name ^ "." ^ label ^ "_a") a in
      let b = watch t (name ^ "." ^ label ^ "_b") b in
      let check cycle =
        if value_bool a && value_bool b then
          violate t cycle name label "mutually exclusive operations both asserted"
      in
      add_check t check)
    mutex

(* FIFO/queue occupancy invariants: the count tracks the empty flag,
   never steps by more than one element per cycle, never exceeds the
   capacity (when known), and full/empty never hold together. *)
let add_fifo t ~name ?depth ?full ~count ~empty () =
  let count = watch t (name ^ "_count") count in
  let empty = watch t (name ^ "_empty") empty in
  let full = Option.map (fun f -> watch t (name ^ "_full") f) full in
  let prev_count = ref 0 and has_prev = ref false in
  let check cycle =
    let c = Bits.to_int count.now in
    let e = value_bool empty in
    if e <> (c = 0) then
      violate t cycle name "empty"
        (Printf.sprintf "empty flag %b inconsistent with count %d" e c);
    (match full with
    | Some f ->
      if value_bool f && e then
        violate t cycle name "full" "full and empty asserted together"
    | None -> ());
    (match depth with
    | Some d ->
      if c > d then
        violate t cycle name "count"
          (Printf.sprintf "occupancy %d exceeds capacity %d (overflow)" c d)
    | None -> ());
    if !has_prev && abs (c - !prev_count) > 1 then
      violate t cycle name "count"
        (Printf.sprintf "occupancy stepped %d -> %d in one cycle" !prev_count c);
    prev_count := c;
    has_prev := true
  in
  add_check t check

(* --- Automatic attachment by naming convention -------------------------- *)

let signals_by_name circuit =
  let tbl = Hashtbl.create 97 in
  let note n s = if not (Hashtbl.mem tbl n) then Hashtbl.replace tbl n s in
  List.iter
    (fun s -> List.iter (fun n -> note n s) (Signal.names s))
    (Circuit.signals circuit);
  (* Input ports carry their name in the port list, not on the node. *)
  List.iter (fun (n, s) -> note n s) (Circuit.inputs circuit);
  tbl

let strip_suffix ~suffix name =
  let nl = String.length name and sl = String.length suffix in
  if nl > sl && String.sub name (nl - sl) sl = suffix then
    Some (String.sub name 0 (nl - sl))
  else None

(* The naming-convention scan, shared between the scalar and batched
   monitors: every [X_req]/[X_ack] pair is a handshake, every
   [X_count]/[X_empty] pair (plus [X_full] when present) a FIFO. The
   name sort fixes attach order, so scalar and batched runs check in
   the same sequence. *)
let auto_specs circuit =
  let tbl = signals_by_name circuit in
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) tbl [] in
  let names = List.sort_uniq compare names in
  let handshakes =
    List.filter_map
      (fun n ->
        match strip_suffix ~suffix:"_req" n with
        | Some base ->
          Option.map
            (fun ack -> (base, Hashtbl.find tbl n, ack))
            (Hashtbl.find_opt tbl (base ^ "_ack"))
        | None -> None)
      names
  in
  let fifos =
    List.filter_map
      (fun n ->
        match strip_suffix ~suffix:"_count" n with
        | Some base ->
          Option.map
            (fun empty ->
              (base, Hashtbl.find tbl n, empty, Hashtbl.find_opt tbl (base ^ "_full")))
            (Hashtbl.find_opt tbl (base ^ "_empty"))
        | None -> None)
      names
  in
  (handshakes, fifos)

(* Attach monitors by scanning the circuit's signal names. Returns how
   many monitors were attached. *)
let add_auto t =
  let handshakes, fifos = auto_specs (Cyclesim.circuit t.sim) in
  List.iter
    (fun (base, req, ack) -> add_handshake t ~name:base ~req ~ack ())
    handshakes;
  List.iter
    (fun (base, count, empty, full) -> add_fifo t ~name:base ?full ~count ~empty ())
    fifos;
  List.length handshakes + List.length fifos

(* --- Sampling ----------------------------------------------------------- *)

let rec read_all slot = function
  | [] -> ()
  | tr :: rest ->
    let b = tr.ring.(slot) in
    tr.read b;
    tr.now <- b;
    read_all slot rest

let rec run_checks cycle = function
  | [] -> ()
  | check :: rest ->
    check cycle;
    run_checks cycle rest

(* Call once per simulation step, after [Cyclesim.cycle]: records the
   watched signals' settled values of the cycle that just completed in
   the history ring, then runs every attached check against them. *)
let sample t =
  let cycle = t.ticks in
  read_all (if t.window = 0 then 0 else cycle mod t.window) t.tracked;
  run_checks cycle t.checks;
  t.ticks <- cycle + 1

let ticks t = t.ticks

(* --- VCD window dump ---------------------------------------------------- *)

let vcd_id i =
  (* Printable short identifiers starting at '!' as in Vcd. *)
  let base = Char.code '!' in
  let range = 94 in
  if i < range then String.make 1 (Char.chr (base + i))
  else
    String.make 1 (Char.chr (base + (i / range)))
    ^ String.make 1 (Char.chr (base + (i mod range)))

let vcd_value b =
  if Bits.width b = 1 then (if Bits.to_bool b then "1" else "0")
  else "b" ^ Bits.to_string b ^ " "

(* Render the retained window of watched signals as VCD text, typically
   written to a file after a violation so the offending cycles can be
   inspected in a waveform viewer.  A signal appears from the first
   sample after it was watched. *)
let vcd_window t =
  let buf = Buffer.create 1024 in
  let ids = List.mapi (fun i tr -> (vcd_id i, tr)) (List.rev t.tracked) in
  Buffer.add_string buf "$timescale 1 ns $end\n";
  Buffer.add_string buf "$scope module monitor $end\n";
  List.iter
    (fun (id, tr) ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" (Signal.width tr.signal) id
           tr.label))
    ids;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  for cycle = max 0 (t.ticks - t.window) to t.ticks - 1 do
    Buffer.add_string buf (Printf.sprintf "#%d\n" cycle);
    List.iter
      (fun (id, tr) ->
        if tr.since <= cycle then
          Buffer.add_string buf
            (vcd_value tr.ring.(cycle mod t.window) ^ id ^ "\n"))
      ids
  done;
  Buffer.contents buf

(* --- Batched monitors ----------------------------------------------------- *)

(* The same checkers evaluated on the bit-planes of a batched engine:
   one pass over a handful of 64-bit words covers every lane at once,
   and lanes are only touched individually when a rule's violation
   mask is non-zero (rare — fault campaigns are mostly violation-free
   cycles). Each rule reproduces the scalar checker bit for bit, in
   the same order, with the same message text, so a lane's violation
   list is identical to what a scalar {!t} over that lane would have
   recorded. No waveform history is retained: campaign classification
   never renders a VCD window, and dropping the per-lane snapshot is
   most of the batching win. *)
module Batch = struct
  type check = active:int64 -> cycle:int -> unit

  type bt = {
    sb : Simbatch.t;
    mutable checks : check list; (* attach order *)
    violations : violation list array; (* newest first, per lane *)
  }

  let create sb =
    { sb; checks = []; violations = Array.make (Simbatch.lanes sb) [] }

  let violations t ~lane = List.rev t.violations.(lane)
  let ok t ~lane = t.violations.(lane) = []

  let first_violation t ~lane =
    match List.rev t.violations.(lane) with v :: _ -> Some v | [] -> None

  let violate t lane cycle monitor signal message =
    t.violations.(lane) <- { cycle; monitor; signal; message } :: t.violations.(lane)

  (* Planes and the checkers' own plane-wide state live in bytes, read
     and written through the compiler's primitives: an int64 that
     crossed a call or sat in a ref or array would be boxed, once per
     plane per cycle.  [word d k] is the [k]-th word of a scratch
     buffer; [plane d p] is plane [p] of a published value (see
     {!Simbatch.published_data}). *)
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let[@inline] word d k = Bits.get64 d (k lsl 3)
  let[@inline] set_word d k v = set64 d (k lsl 3) v
  let[@inline] plane d p = Bits.get64 d (Bits.limb_offset p)
  let words n = Bytes.make (8 * n) '\000'

  (* Callers test [m] first: the closure a call builds is then only
     allocated on a cycle that has a violation. *)
  let iter_lanes m f =
    for l = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical m l) 1L = 1L then f l
    done

  (* Lane-wise truthiness: the OR of the signal's planes — the batched
     [peek_bool]. *)
  let[@inline] or_planes d w =
    let acc = ref 0L in
    for b = 0 to w - 1 do
      acc := Int64.logor !acc (plane d b)
    done;
    !acc

  (* Per-lane small-integer readback of [n] scratch words, for
     violation message text only. *)
  let lane_int d n l =
    let v = ref 0 in
    for b = 0 to n - 1 do
      if Int64.logand (Int64.shift_right_logical (word d b) l) 1L = 1L then
        v := !v lor (1 lsl b)
    done;
    !v

  let node t s = Simbatch.published_data t.sb (Simbatch.node_index t.sb s)

  let add_handshake t ~name ?payload ~req ~ack () =
    let rd = node t req and rw = Signal.width req in
    let ad = node t ack and aw = Signal.width ack in
    let pay =
      Option.map
        (fun p -> (node t p, Signal.width p, words (Signal.width p)))
        payload
    in
    (* Words 0 and 1: the previous cycle's req and ack planes. *)
    let prev = words 2 in
    let check ~active ~cycle =
      let r = or_planes rd rw and a = or_planes ad aw in
      let m = Int64.logand (Int64.logand a (Int64.lognot r)) active in
      if m <> 0L then
        iter_lanes m (fun l ->
            violate t l cycle name "ack" "ack asserted with no request pending");
      let pend = Int64.logand (word prev 0) (Int64.lognot (word prev 1)) in
      let m = Int64.logand (Int64.logand pend (Int64.lognot r)) active in
      if m <> 0L then
        iter_lanes m (fun l ->
            violate t l cycle name "req" "request dropped before acknowledge");
      (match pay with
      | Some (pd, pw, before) ->
        (* First sample can never fire the rule (pend is empty until a
           request has been seen), matching the scalar checker's
           first-sample guard. *)
        let diff = ref 0L in
        for b = 0 to pw - 1 do
          diff := Int64.logor !diff (Int64.logxor (plane pd b) (word before b))
        done;
        let m =
          Int64.logand (Int64.logand (Int64.logand pend r) !diff) active
        in
        if m <> 0L then
          iter_lanes m (fun l ->
              violate t l cycle name "payload"
                "payload changed while request pending");
        for b = 0 to pw - 1 do
          set_word before b (plane pd b)
        done
      | None -> ());
      set_word prev 0 r;
      set_word prev 1 a
    in
    t.checks <- t.checks @ [ check ]

  let add_fifo t ~name ?depth ?full ~count ~empty () =
    let cd = node t count and cw = Signal.width count in
    let ed = node t empty and ew = Signal.width empty in
    let ful = Option.map (fun f -> (node t f, Signal.width f)) full in
    let c_planes = words cw in
    (* The step rule subtracts over [cw + 1] planes (both operands
       zero-extended), so a full-range jump like 0 -> 2^cw - 1 can
       never alias the difference -1. *)
    let prev = words (cw + 1) in
    let dd = words (cw + 1) in
    let has_prev = words 1 in
    let check ~active ~cycle =
      for b = 0 to cw - 1 do
        set_word c_planes b (plane cd b)
      done;
      let nonzero = or_planes cd cw in
      let e = or_planes ed ew in
      let m = Int64.logand (Int64.logxor e (Int64.lognot nonzero)) active in
      if m <> 0L then
        iter_lanes m (fun l ->
            let eb = Int64.logand (Int64.shift_right_logical e l) 1L = 1L in
            violate t l cycle name "empty"
              (Printf.sprintf "empty flag %b inconsistent with count %d" eb
                 (lane_int c_planes cw l)));
      (match ful with
      | Some (fd, fw) ->
        let fm = or_planes fd fw in
        let m = Int64.logand (Int64.logand fm e) active in
        if m <> 0L then
          iter_lanes m (fun l ->
              violate t l cycle name "full" "full and empty asserted together")
      | None -> ());
      (match depth with
      | Some d ->
        (* Unsigned [count > depth], LSB-to-MSB over enough planes to
           cover both operands (count planes past [cw] are zero). *)
        let np =
          let rec bits k n = if n = 0 then k else bits (k + 1) (n lsr 1) in
          max cw (bits 0 d)
        in
        let gt = ref 0L in
        for b = 0 to np - 1 do
          let cp = if b < cw then word c_planes b else 0L in
          let dp = if b < 62 && (d lsr b) land 1 = 1 then -1L else 0L in
          gt :=
            Int64.logor
              (Int64.logand cp (Int64.lognot dp))
              (Int64.logand (Int64.lognot (Int64.logxor cp dp)) !gt)
        done;
        let m = Int64.logand !gt active in
        if m <> 0L then
          iter_lanes m (fun l ->
              violate t l cycle name "count"
                (Printf.sprintf "occupancy %d exceeds capacity %d (overflow)"
                   (lane_int c_planes cw l) d))
      | None -> ());
      (* |count - prev| > 1: plane-serial subtract, then the difference
         must be 0, 1 or -1 (all-ones). *)
      let carry = ref (-1L) in
      for b = 0 to cw do
        let x = if b < cw then word c_planes b else 0L in
        let y = Int64.lognot (word prev b) in
        let axy = Int64.logxor x y in
        set_word dd b (Int64.logxor axy !carry);
        carry := Int64.logor (Int64.logand x y) (Int64.logand !carry axy)
      done;
      let eq0 = ref (-1L) and eq1 = ref (-1L) and eqm1 = ref (-1L) in
      for b = 0 to cw do
        let v = word dd b in
        eq0 := Int64.logand !eq0 (Int64.lognot v);
        eq1 := Int64.logand !eq1 (if b = 0 then v else Int64.lognot v);
        eqm1 := Int64.logand !eqm1 v
      done;
      let m =
        Int64.logand
          (Int64.logand
             (Int64.lognot (Int64.logor !eq0 (Int64.logor !eq1 !eqm1)))
             (word has_prev 0))
          active
      in
      if m <> 0L then
        iter_lanes m (fun l ->
            violate t l cycle name "count"
              (Printf.sprintf "occupancy stepped %d -> %d in one cycle"
                 (lane_int prev cw l) (lane_int c_planes cw l)));
      for b = 0 to cw - 1 do
        set_word prev b (word c_planes b)
      done;
      set_word has_prev 0 (Int64.logor (word has_prev 0) active)
    in
    t.checks <- t.checks @ [ check ]

  let add_auto t =
    let handshakes, fifos = auto_specs (Simbatch.circuit t.sb) in
    List.iter
      (fun (base, req, ack) -> add_handshake t ~name:base ~req ~ack ())
      handshakes;
    List.iter
      (fun (base, count, empty, full) ->
        add_fifo t ~name:base ?full ~count ~empty ())
      fifos;
    List.length handshakes + List.length fifos

  let rec run_checks ~active ~cycle = function
    | [] -> ()
    | check :: rest ->
      check ~active ~cycle;
      run_checks ~active ~cycle rest

  (* Call once per batch cycle, after [Simbatch.cycle], with the mask
     of still-active lanes: checks run for exactly the lanes a scalar
     campaign would still be sampling. *)
  let sample t ~active ~cycle = run_checks ~active ~cycle t.checks
end
