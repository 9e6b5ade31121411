open Hwpat_rtl

(** Simulation-side video decoder model (the SAA7113 stand-in).

    Streams a frame's pixels into a circuit through a valid/ready
    handshake, one [drive]/[observe] pair per simulated cycle:

    {[ while not (Video_source.exhausted src) do
         Video_source.drive src;
         Cyclesim.cycle sim;
         Video_source.observe src
       done ]}

    [drive] presents the current pixel on the valid/data input ports;
    [observe] (after the cycle) checks the ready output and advances
    past consumed pixels. *)

type t

val create :
  ?valid_port:string ->
  ?data_port:string ->
  ?ready_port:string ->
  Cyclesim.t ->
  Frame.t ->
  t
(** Port-name defaults: ["px_valid"], ["px_data"], ["px_ready"].
    The ports are bound here, once: a missing port, or an input port
    whose width is not 1 (valid) or the frame depth (data), raises the
    [Invalid_argument] {!Cyclesim.drive} would. Pixels are read from
    [frame] as they stream, so it must not be changed meanwhile. *)

val drive : t -> unit
val observe : t -> unit
val exhausted : t -> bool
val sent : t -> int

val restart : t -> Frame.t -> unit
(** Start streaming a new frame (same dimensions). *)

(** Plane-level source over a whole {!Simbatch} batch: one
    [drive]/[observe] pair per cycle feeds every lane at once, with
    per-lane stream positions (fault effects can desynchronize lanes).
    Per lane the driven values and advance decisions are exactly the
    scalar source's — [mask] selects the lanes being driven; unmasked
    lanes keep their previous input values, like a scalar driver that
    is no longer called. *)
module Batch : sig
  type bt

  val create :
    ?valid_port:string ->
    ?data_port:string ->
    ?ready_port:string ->
    Hwpat_rtl.Simbatch.t ->
    Frame.t ->
    bt

  val drive : bt -> mask:int64 -> unit
  val observe : bt -> mask:int64 -> unit
  val exhausted : bt -> lane:int -> bool
  val sent : bt -> lane:int -> int
end
