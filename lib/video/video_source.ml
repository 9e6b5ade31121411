open Hwpat_rtl

(* Ports are bound once, in [create].  Pixels are read from the frame
   in stream order; the head pixel is converted to a [Bits.t] once,
   when it reaches the head, not on every cycle it is presented. *)
type t = {
  valid : Bits.t ref;
  data : Bits.t ref;
  ready : Bits.t ref;
  mutable frame : Frame.t;
  mutable pos : int; (* pixels consumed so far *)
  mutable head : Bits.t; (* pixel [pos], converted *)
}

(* Shared valid values: refs only ever hold immutable values. *)
let high = Bits.one 1
let low = Bits.zero 1

let head_of frame pos =
  if pos >= Frame.pixels frame then low
  else
    let w = Frame.width frame in
    Bits.of_int ~width:(Frame.depth frame)
      (Frame.get frame ~x:(pos mod w) ~y:(pos / w))

let create ?(valid_port = "px_valid") ?(data_port = "px_data")
    ?(ready_port = "px_ready") sim frame =
  {
    valid = Cyclesim.bind_input sim valid_port ~width:1;
    data = Cyclesim.bind_input sim data_port ~width:(Frame.depth frame);
    ready = Cyclesim.out_port sim ready_port;
    frame;
    pos = 0;
    head = head_of frame 0;
  }

let exhausted t = t.pos >= Frame.pixels t.frame
let sent t = t.pos

let drive t =
  if exhausted t then t.valid := low
  else begin
    t.valid := high;
    t.data := t.head
  end

let observe t =
  if (not (exhausted t)) && Bits.to_bool !(t.ready) then begin
    t.pos <- t.pos + 1;
    t.head <- head_of t.frame t.pos
  end

let restart t frame =
  if Frame.depth frame <> Frame.depth t.frame then
    invalid_arg "Video_source.restart: depth mismatch";
  t.frame <- frame;
  t.pos <- 0;
  t.head <- head_of frame 0

(* Plane-level variant over a whole batch: one [drive]/[observe] pair
   feeds every lane at once through {!Simbatch.write_input_plane} and
   a single ready-plane read, with per-lane stream positions so lanes
   desynchronized by fault effects keep their own pace. Per lane and
   cycle the driven values and advance decisions are exactly the
   scalar [drive]/[observe] above. *)
module Batch = struct
  type bt = {
    sb : Simbatch.t;
    valid_in : int;
    data_in : int;
    ready_out : Bytes.t; (* published planes, see Simbatch.published_data *)
    ready_w : int;
    depth : int;
    pixels : int array;
    pos : int array; (* per lane *)
    heads : Bytes.t;
        (* Word [b < depth]: bit [b] of every streaming lane's head
           pixel, kept up to date as lanes advance; word [depth]: the
           exhausted lanes.  A drive is then [depth + 1] plane writes,
           whatever the lane count. *)
  }

  (* Words are read and written through the compiler's primitives, so
     that no plane value is boxed on the per-cycle path. *)
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let[@inline] word d k = Bits.get64 d (k lsl 3)
  let[@inline] set_word d k v = set64 d (k lsl 3) v

  (* Lane [l]'s column of the head words becomes pixel [pos], or the
     lane joins the exhausted ones. *)
  let set_head t l pos =
    let m = Int64.shift_left 1L l in
    if pos >= Array.length t.pixels then
      set_word t.heads t.depth (Int64.logor (word t.heads t.depth) m)
    else
      let px = t.pixels.(pos) in
      for b = 0 to t.depth - 1 do
        let w = word t.heads b in
        set_word t.heads b
          (if (px lsr b) land 1 = 1 then Int64.logor w m
           else Int64.logand w (Int64.lognot m))
      done

  let create ?(valid_port = "px_valid") ?(data_port = "px_data")
      ?(ready_port = "px_ready") sb frame =
    let lanes = Simbatch.lanes sb in
    let depth = Frame.depth frame in
    let t =
      {
        sb;
        valid_in = Simbatch.input_index sb valid_port;
        data_in = Simbatch.input_index sb data_port;
        ready_out =
          Simbatch.published_data sb (Simbatch.out_node sb ready_port);
        ready_w =
          Signal.width (Circuit.find_output (Simbatch.circuit sb) ready_port);
        depth;
        pixels = Array.of_list (Frame.to_row_major frame);
        pos = Array.make lanes 0;
        heads = Bytes.make (8 * (depth + 1)) '\000';
      }
    in
    for l = 0 to lanes - 1 do
      set_head t l 0
    done;
    t

  let drive t ~mask =
    (* Every masked lane drives valid (0 once exhausted); data is only
       driven by still-streaming lanes, like the scalar source. *)
    let streaming = Int64.logand mask (Int64.lognot (word t.heads t.depth)) in
    Simbatch.write_input_plane t.sb t.valid_in ~plane:0 ~mask ~bits:streaming;
    if streaming <> 0L then
      for b = 0 to t.depth - 1 do
        Simbatch.write_input_plane t.sb t.data_in ~plane:b ~mask:streaming
          ~bits:(word t.heads b)
      done

  let observe t ~mask =
    let n = Array.length t.pixels in
    let ready = ref 0L in
    for b = 0 to t.ready_w - 1 do
      ready := Int64.logor !ready (Bits.get64 t.ready_out (Bits.limb_offset b))
    done;
    let adv = Int64.logand mask !ready in
    if not (Int64.equal adv 0L) then
      for l = 0 to Simbatch.lanes t.sb - 1 do
        if
          Int64.logand (Int64.shift_right_logical adv l) 1L = 1L
          && t.pos.(l) < n
        then begin
          t.pos.(l) <- t.pos.(l) + 1;
          set_head t l t.pos.(l)
        end
      done

  let exhausted t ~lane = t.pos.(lane) >= Array.length t.pixels
  let sent t ~lane = t.pos.(lane)
end
