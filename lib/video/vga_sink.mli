open Hwpat_rtl

(** Simulation-side VGA coder model: collects the output pixel stream.

    The sink holds its ready input high (optionally with a duty cycle
    to model a slower consumer) and captures a word whenever the
    circuit pulses its valid output. Call [drive] before each cycle
    and [observe] after it, like {!Video_source}. *)

type t

val create :
  ?valid_port:string ->
  ?data_port:string ->
  ?ready_port:string ->
  ?ready_every:int ->
  Cyclesim.t ->
  unit ->
  t
(** Defaults: ["out_valid"], ["out_data"], ["out_ready"],
    [ready_every = 1] (always ready). [ready_every = n] asserts ready
    one cycle in [n]. If the circuit has no ready input, pass
    [ready_port:""]. The ports are bound here, once: a missing port,
    or a ready input that is not 1 bit wide, raises the
    [Invalid_argument] {!Cyclesim.drive} would. *)

val drive : t -> unit
val observe : t -> unit

val collected : t -> int list
(** Captured words, oldest first. *)

val count : t -> int
(** Words captured so far; constant time. *)

val to_frame : t -> width:int -> height:int -> depth:int -> Frame.t
(** Raises if the captured count does not equal [width * height]. *)

val clear : t -> unit

(** Plane-level sink over a whole {!Simbatch} batch: one valid-plane
    read per cycle, per-lane extraction only for lanes that pulsed
    valid. Always ready (the scalar sink's default [ready_every = 1]):
    per lane the ready waveform and captured words are exactly the
    scalar sink's — [mask] selects the lanes being driven. *)
module Batch : sig
  type bt

  val create :
    ?valid_port:string ->
    ?data_port:string ->
    ?ready_port:string ->
    Hwpat_rtl.Simbatch.t ->
    unit ->
    bt

  val drive : bt -> mask:int64 -> unit
  val observe : bt -> mask:int64 -> unit

  val collected : bt -> lane:int -> int list
  (** Captured words, oldest first. *)

  val count : bt -> lane:int -> int
end
