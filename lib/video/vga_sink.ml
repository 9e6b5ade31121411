open Hwpat_rtl

(* Ports are bound once, in [create]; the per-cycle path only assigns
   and reads refs. *)
type t = {
  valid : Bits.t ref;
  data : Bits.t ref;
  ready : Bits.t ref option;
  ready_every : int;
  mutable tick : int;
  mutable captured : int list; (* newest first *)
  mutable count : int;
}

(* Shared ready values: refs only ever hold immutable values. *)
let high = Bits.one 1
let low = Bits.zero 1

let create ?(valid_port = "out_valid") ?(data_port = "out_data")
    ?(ready_port = "out_ready") ?(ready_every = 1) sim () =
  if ready_every < 1 then invalid_arg "Vga_sink.create: ready_every must be >= 1";
  {
    valid = Cyclesim.out_port sim valid_port;
    data = Cyclesim.out_port sim data_port;
    ready =
      (if ready_port = "" then None
       else Some (Cyclesim.bind_input sim ready_port ~width:1));
    ready_every;
    tick = 0;
    captured = [];
    count = 0;
  }

let drive t =
  (match t.ready with
  | Some r -> r := if t.tick mod t.ready_every = 0 then high else low
  | None -> ());
  t.tick <- t.tick + 1

let observe t =
  if Bits.to_bool !(t.valid) then begin
    t.captured <- Bits.to_int !(t.data) :: t.captured;
    t.count <- t.count + 1
  end

let collected t = List.rev t.captured
let count t = t.count

let to_frame t ~width ~height ~depth =
  Frame.of_row_major ~width ~height ~depth (collected t)

let clear t =
  t.captured <- [];
  t.count <- 0;
  t.tick <- 0

(* Plane-level variant over a whole batch: one valid-plane read per
   cycle, with per-lane extraction only for the lanes that pulsed
   valid. It is always ready, so per lane and cycle the ready waveform
   and captured words are exactly the scalar [drive]/[observe] above
   at [ready_every = 1]. A constant ready is what Faultsim's retirement
   of quiescent lanes requires (DESIGN.md §15). *)
module Batch = struct
  type bt = {
    sb : Simbatch.t;
    valid_out : Bytes.t; (* published planes, see Simbatch.published_data *)
    valid_w : int;
    data_out : Bytes.t;
    data_w : int;
    ready_in : int option;
    captured : int array array;
        (* per lane, the first [count] entries in capture order; grown
           by doubling, so that a batch's pixels are a few flat arrays
           rather than a cons cell each *)
    count : int array;
  }

  (* Planes are read through the compiler's primitive, so that no plane
     value is boxed on the per-cycle path. *)
  let[@inline] plane d p = Bits.get64 d (Bits.limb_offset p)

  let create ?(valid_port = "out_valid") ?(data_port = "out_data")
      ?(ready_port = "out_ready") sb () =
    let lanes = Simbatch.lanes sb in
    let width_of p = Signal.width (Circuit.find_output (Simbatch.circuit sb) p) in
    let out p = Simbatch.published_data sb (Simbatch.out_node sb p) in
    {
      sb;
      valid_out = out valid_port;
      valid_w = width_of valid_port;
      data_out = out data_port;
      data_w = width_of data_port;
      ready_in =
        (if ready_port = "" then None
         else Some (Simbatch.input_index sb ready_port));
      captured = Array.make lanes [||];
      count = Array.make lanes 0;
    }

  (* Always ready: every driven lane's ready bit is its mask bit. *)
  let drive t ~mask =
    match t.ready_in with
    | None -> ()
    | Some ready_in ->
      Simbatch.write_input_plane t.sb ready_in ~plane:0 ~mask ~bits:mask

  let observe t ~mask =
    let valid = ref 0L in
    for b = 0 to t.valid_w - 1 do
      valid := Int64.logor !valid (plane t.valid_out b)
    done;
    let hit = Int64.logand mask !valid in
    if not (Int64.equal hit 0L) then
      for l = 0 to Simbatch.lanes t.sb - 1 do
        if Int64.logand (Int64.shift_right_logical hit l) 1L = 1L then begin
          let px = ref 0 in
          for b = 0 to t.data_w - 1 do
            if
              Int64.logand (Int64.shift_right_logical (plane t.data_out b) l) 1L
              = 1L
            then px := !px lor (1 lsl b)
          done;
          let n = t.count.(l) in
          if n = Array.length t.captured.(l) then begin
            let grown = Array.make (max 64 (2 * n)) 0 in
            Array.blit t.captured.(l) 0 grown 0 n;
            t.captured.(l) <- grown
          end;
          t.captured.(l).(n) <- !px;
          t.count.(l) <- n + 1
        end
      done

  let collected t ~lane = List.init t.count.(lane) (Array.get t.captured.(lane))
  let count t ~lane = t.count.(lane)
end
