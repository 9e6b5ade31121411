(* Runtime protocol monitors over a Cyclesim instance. *)

type violation = { cycle : int; monitor : string; signal : string; message : string }

let pp_violation fmt v =
  Format.fprintf fmt "cycle %d: [%s] %s: %s" v.cycle v.monitor v.signal v.message

type tracked = { signal : Signal.t; label : string }

type t = {
  sim : Cyclesim.t;
  window : int;
  mutable tracked : tracked list; (* reverse attach order *)
  mutable checks : (int -> unit) list;
  mutable violations : violation list; (* newest first *)
  mutable history : (int * (int * Bits.t) list) list; (* newest first *)
  mutable ticks : int;
}

let create ?(window = 48) sim =
  {
    sim;
    window;
    tracked = [];
    checks = [];
    violations = [];
    history = [];
    ticks = 0;
  }

let violate t cycle monitor signal message =
  t.violations <- { cycle; monitor; signal; message } :: t.violations

let violations t = List.rev t.violations
let ok t = t.violations = []

let first_violation t =
  match List.rev t.violations with v :: _ -> Some v | [] -> None

let watch t label s =
  if not (List.exists (fun tr -> Signal.uid tr.signal = Signal.uid s) t.tracked)
  then t.tracked <- { signal = s; label } :: t.tracked

let peek t s = Cyclesim.peek t.sim s
let peek_bool t s = Bits.to_bool (peek t s)

(* --- Checkers ----------------------------------------------------------- *)

(* The library-wide req/ack convention (see Handshake): the requester
   holds [req] high, with any payload stable, until the cycle where
   [ack] is high; [ack] never fires without a request pending. *)
let add_handshake t ~name ?payload ~req ~ack () =
  watch t (name ^ "_req") req;
  watch t (name ^ "_ack") ack;
  Option.iter (fun p -> watch t (name ^ "_payload") p) payload;
  let prev_req = ref false and prev_ack = ref false in
  let prev_payload = ref None in
  let check cycle =
    let r = peek_bool t req and a = peek_bool t ack in
    let p = Option.map (peek t) payload in
    if a && not r then
      violate t cycle name "ack" "ack asserted with no request pending";
    if !prev_req && not !prev_ack then begin
      if not r then
        violate t cycle name "req" "request dropped before acknowledge";
      match (p, !prev_payload) with
      | Some now, Some before when r && not (Bits.equal now before) ->
        violate t cycle name "payload" "payload changed while request pending"
      | _ -> ()
    end;
    prev_req := r;
    prev_ack := a;
    prev_payload := p
  in
  t.checks <- check :: t.checks

(* Iterator-op sequencing: each operation obeys the handshake rule and
   operations declared mutually exclusive never fire together. *)
let add_iterator t ~name ?(mutex = []) ~ops () =
  List.iter
    (fun (op, req, ack) -> add_handshake t ~name:(name ^ "." ^ op) ~req ~ack ())
    ops;
  List.iter
    (fun (label, a, b) ->
      watch t (name ^ "." ^ label ^ "_a") a;
      watch t (name ^ "." ^ label ^ "_b") b;
      let check cycle =
        if peek_bool t a && peek_bool t b then
          violate t cycle name label "mutually exclusive operations both asserted"
      in
      t.checks <- check :: t.checks)
    mutex

(* FIFO/queue occupancy invariants: the count tracks the empty flag,
   never steps by more than one element per cycle, never exceeds the
   capacity (when known), and full/empty never hold together. *)
let add_fifo t ~name ?depth ?full ~count ~empty () =
  watch t (name ^ "_count") count;
  watch t (name ^ "_empty") empty;
  Option.iter (fun f -> watch t (name ^ "_full") f) full;
  let prev_count = ref None in
  let check cycle =
    let c = Bits.to_int (peek t count) in
    let e = peek_bool t empty in
    if e <> (c = 0) then
      violate t cycle name "empty"
        (Printf.sprintf "empty flag %b inconsistent with count %d" e c);
    (match full with
    | Some f ->
      if peek_bool t f && e then
        violate t cycle name "full" "full and empty asserted together"
    | None -> ());
    (match depth with
    | Some d ->
      if c > d then
        violate t cycle name "count"
          (Printf.sprintf "occupancy %d exceeds capacity %d (overflow)" c d)
    | None -> ());
    (match !prev_count with
    | Some p ->
      if abs (c - p) > 1 then
        violate t cycle name "count"
          (Printf.sprintf "occupancy stepped %d -> %d in one cycle" p c)
    | None -> ());
    prev_count := Some c
  in
  t.checks <- check :: t.checks

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

(* Call once per simulation step, after [Cyclesim.cycle]: runs every
   attached check against the settled values of the cycle that just
   completed and records watched signals in the history ring. *)
let sample t =
  let cycle = t.ticks in
  List.iter (fun check -> check cycle) (List.rev t.checks);
  let snapshot =
    List.rev_map (fun tr -> (Signal.uid tr.signal, peek t tr.signal)) t.tracked
  in
  t.history <- (cycle, snapshot) :: t.history;
  let rec trim n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: trim (n - 1) rest
  in
  t.history <- trim t.window t.history;
  t.ticks <- t.ticks + 1

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
   inspected in a waveform viewer. *)
let vcd_window t =
  let buf = Buffer.create 1024 in
  let tracked = List.rev t.tracked in
  let ids = List.mapi (fun i tr -> (Signal.uid tr.signal, (vcd_id i, tr))) tracked in
  Buffer.add_string buf "$timescale 1 ns $end\n";
  Buffer.add_string buf "$scope module monitor $end\n";
  List.iter
    (fun (_, (id, tr)) ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" (Signal.width tr.signal) id
           tr.label))
    ids;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  List.iter
    (fun (cycle, snapshot) ->
      Buffer.add_string buf (Printf.sprintf "#%d\n" cycle);
      List.iter
        (fun (uid, (id, _)) ->
          match List.assoc_opt uid snapshot with
          | Some b -> Buffer.add_string buf (vcd_value b ^ id ^ "\n")
          | None -> ())
        ids)
    (List.rev t.history);
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

  (* Callers test [m] first: the closure a call builds is then only
     allocated on a cycle that has a violation. *)
  let iter_lanes m f =
    for l = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical m l) 1L = 1L then f l
    done

  (* Lane-wise truthiness: the OR of the signal's planes — the batched
     [peek_bool]. *)
  let or_planes t i w =
    let acc = ref 0L in
    for b = 0 to w - 1 do
      acc := Int64.logor !acc (Simbatch.read_plane t.sb i ~plane:b)
    done;
    !acc

  (* Per-lane small-integer readback, for violation message text only. *)
  let lane_int planes n l =
    let v = ref 0 in
    for b = 0 to n - 1 do
      if Int64.logand (Int64.shift_right_logical planes.(b) l) 1L = 1L then
        v := !v lor (1 lsl b)
    done;
    !v

  let add_handshake t ~name ?payload ~req ~ack () =
    let ri = Simbatch.node_index t.sb req and rw = Signal.width req in
    let ai = Simbatch.node_index t.sb ack and aw = Signal.width ack in
    let pay =
      Option.map
        (fun p ->
          ( Simbatch.node_index t.sb p,
            Signal.width p,
            Array.make (Signal.width p) 0L ))
        payload
    in
    let prev_req = ref 0L and prev_ack = ref 0L in
    let check ~active ~cycle =
      let r = or_planes t ri rw and a = or_planes t ai aw in
      let m = Int64.logand (Int64.logand a (Int64.lognot r)) active in
      if m <> 0L then
        iter_lanes m (fun l ->
            violate t l cycle name "ack" "ack asserted with no request pending");
      let pend = Int64.logand !prev_req (Int64.lognot !prev_ack) in
      let m = Int64.logand (Int64.logand pend (Int64.lognot r)) active in
      if m <> 0L then
        iter_lanes m (fun l ->
            violate t l cycle name "req" "request dropped before acknowledge");
      (match pay with
      | Some (pi, pw, prev) ->
        (* First sample can never fire the rule (pend is empty until a
           request has been seen), matching the scalar checker's
           [prev_payload = None] guard. *)
        let diff = ref 0L in
        for b = 0 to pw - 1 do
          diff :=
            Int64.logor !diff
              (Int64.logxor (Simbatch.read_plane t.sb pi ~plane:b) prev.(b))
        done;
        let m =
          Int64.logand (Int64.logand (Int64.logand pend r) !diff) active
        in
        if m <> 0L then
          iter_lanes m (fun l ->
              violate t l cycle name "payload"
                "payload changed while request pending");
        for b = 0 to pw - 1 do
          prev.(b) <- Simbatch.read_plane t.sb pi ~plane:b
        done
      | None -> ());
      prev_req := r;
      prev_ack := a
    in
    t.checks <- t.checks @ [ check ]

  let add_fifo t ~name ?depth ?full ~count ~empty () =
    let ci = Simbatch.node_index t.sb count and cw = Signal.width count in
    let ei = Simbatch.node_index t.sb empty and ew = Signal.width empty in
    let ful =
      Option.map (fun f -> (Simbatch.node_index t.sb f, Signal.width f)) full
    in
    let c_planes = Array.make cw 0L in
    (* The step rule subtracts over [cw + 1] planes (both operands
       zero-extended), so a full-range jump like 0 -> 2^cw - 1 can
       never alias the difference -1. *)
    let prev = Array.make (cw + 1) 0L in
    let dd = Array.make (cw + 1) 0L in
    let has_prev = ref 0L in
    let check ~active ~cycle =
      for b = 0 to cw - 1 do
        c_planes.(b) <- Simbatch.read_plane t.sb ci ~plane:b
      done;
      let nonzero = ref 0L in
      for b = 0 to cw - 1 do
        nonzero := Int64.logor !nonzero c_planes.(b)
      done;
      let e = or_planes t ei ew in
      let m = Int64.logand (Int64.logxor e (Int64.lognot !nonzero)) active in
      if m <> 0L then
        iter_lanes m (fun l ->
            let eb = Int64.logand (Int64.shift_right_logical e l) 1L = 1L in
            violate t l cycle name "empty"
              (Printf.sprintf "empty flag %b inconsistent with count %d" eb
                 (lane_int c_planes cw l)));
      (match ful with
      | Some (fi, fw) ->
        let fm = or_planes t fi fw in
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
          let cp = if b < cw then c_planes.(b) else 0L in
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
        let x = if b < cw then c_planes.(b) else 0L in
        let y = Int64.lognot prev.(b) in
        let axy = Int64.logxor x y in
        dd.(b) <- Int64.logxor axy !carry;
        carry := Int64.logor (Int64.logand x y) (Int64.logand !carry axy)
      done;
      let eq0 = ref (-1L) and eq1 = ref (-1L) and eqm1 = ref (-1L) in
      for b = 0 to cw do
        eq0 := Int64.logand !eq0 (Int64.lognot dd.(b));
        eq1 := Int64.logand !eq1 (if b = 0 then dd.(b) else Int64.lognot dd.(b));
        eqm1 := Int64.logand !eqm1 dd.(b)
      done;
      let m =
        Int64.logand
          (Int64.logand
             (Int64.lognot (Int64.logor !eq0 (Int64.logor !eq1 !eqm1)))
             !has_prev)
          active
      in
      if m <> 0L then
        iter_lanes m (fun l ->
            violate t l cycle name "count"
              (Printf.sprintf "occupancy stepped %d -> %d in one cycle"
                 (lane_int prev cw l) (lane_int c_planes cw l)));
      for b = 0 to cw - 1 do
        prev.(b) <- c_planes.(b)
      done;
      has_prev := Int64.logor !has_prev active
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

  (* Call once per batch cycle, after [Simbatch.cycle], with the mask
     of still-active lanes: checks run for exactly the lanes a scalar
     campaign would still be sampling. *)
  let sample t ~active ~cycle =
    List.iter (fun check -> check ~active ~cycle) t.checks
end
