(** Small numeric helpers shared across the RTL libraries. *)

val clog2 : int -> int
(** Ceiling log2: [clog2 1 = 0], [clog2 2 = 1], [clog2 5 = 3].
    Raises [Invalid_argument] for values < 1. *)

val address_bits : int -> int
(** Bits needed to address [n] locations: [max 1 (clog2 n)]. *)

val bits_to_represent : int -> int
(** Bits needed to hold the value [n] itself: [bits_to_represent 8 = 4]. *)

val is_power_of_two : int -> bool
