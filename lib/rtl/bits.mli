(** Arbitrary-width immutable bit vectors.

    Values are unsigned two's-complement words of a fixed [width] (at
    least 1 bit). All arithmetic is modulo [2^width]; all comparisons
    are unsigned unless the function name says otherwise. Bit 0 is the
    least significant bit. *)

type t

(** {1 Construction} *)

val width : t -> int

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val one : int -> t
(** [one w] is the value 1 at width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] truncates [n] (taken as an infinite two's
    complement integer) to [width] bits. *)

val of_int64 : width:int -> int64 -> t

val of_string : string -> t
(** [of_string "0110"] parses a binary literal, MSB first. Underscores
    are ignored. Raises [Invalid_argument] on empty or non-binary
    input. *)

val of_bool : bool -> t
(** 1-bit vector: [true] is 1, [false] is 0. *)

val random : width:int -> t
(** Uniformly random vector (uses [Random] global state). *)

(** {1 Conversion} *)

val to_int : t -> int
(** Low [Sys.int_size - 1] bits as a non-negative OCaml int. Raises
    [Invalid_argument] if the value does not fit. *)

val to_int_opt : t -> int option
(** [Some v] when the value fits, [None] otherwise. There is
    deliberately no truncating conversion: silently dropping high bits
    of wide values corrupted diagnostics. *)

val to_index : t -> bound:int -> int
(** [to_index t ~bound] is the value as an int when it is below
    [bound], and [-1] otherwise (a value too wide for an int included).
    The allocation-free form of an address or select bound check, for
    the simulators' memory reads and {!Signal.mux_index}. *)

val to_int64 : t -> int64
(** Low 64 bits. *)

val to_string : t -> string
(** Binary, MSB first, exactly [width] characters. *)

val to_bool : t -> bool
(** [true] iff any bit is set. *)

val pp : Format.formatter -> t -> unit

(** {1 Bit access and structure} *)

val bit : t -> int -> bool
(** [bit t i] is bit [i]; raises [Invalid_argument] if out of range. *)

val select : t -> high:int -> low:int -> t
(** [select t ~high ~low] extracts bits [high..low] inclusive. *)

val msb : t -> bool
val lsb : t -> bool

val concat_msb : t list -> t
(** [concat_msb [a; b; c]] has [a] in the most significant position. *)

val repeat : t -> int -> t
(** [repeat t n] concatenates [n] copies of [t]; [n >= 1]. *)

val uresize : t -> int -> t
(** Zero-extend or truncate to the given width. *)

val sresize : t -> int -> t
(** Sign-extend or truncate to the given width. *)

(** {1 Arithmetic (widths must match; result has the same width)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Truncating multiply: result width = width of the operands. *)

val neg : t -> t

(** {1 Logic} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val sll : t -> int -> t
(** Shift left logical by a constant; result width unchanged.

    Shift amounts saturate: for [n >= width] the result is all zeros
    ([sll]/[srl]) or all sign bits ([sra]), exactly as if the shift had
    been applied one bit at a time. Negative shift amounts raise
    [Invalid_argument]. The simulation engines and the HDL back-ends
    share these semantics (see the shift consistency test in
    test/test_backends.ml). *)

val srl : t -> int -> t
(** Shift right logical; zero-fill, saturating like {!sll}. *)

val sra : t -> int -> t
(** Shift right arithmetic; sign-fill, [n >= width] yields a vector of
    copies of the original sign bit. *)

(** {1 Comparison (unsigned; result is a 1-bit vector)} *)

val eq : t -> t -> t
val lt : t -> t -> t

val equal : t -> t -> bool
(** Structural equality (same width and value). *)

val compare : t -> t -> int
(** Unsigned comparison of same-width vectors. *)

(** {1 Destination-buffer variants}

    In-place operations for the compiled simulator's hot loop: each
    writes its result into [dst], which must have been created at
    exactly the result width, instead of allocating a fresh vector.
    The element-wise operations ([add_into] .. [lognot_into],
    [eq_into], [lt_into]) tolerate [dst] aliasing an operand's storage;
    [select_into] and [concat_msb_into] do not. All raise
    [Invalid_argument] on width mismatches, like their allocating
    counterparts.

    None of them allocates, and neither do {!blit_changed}, {!equal},
    {!compare}, {!to_bool} and {!to_index}: limbs are stored unboxed
    and the kernels keep every 64-bit value in registers (the
    allocation-budget test in test/test_bits.ml holds them to 0 minor
    words per call). *)

val copy : t -> t
(** A physically fresh vector with the same width and value. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s value with [src]'s. Widths must match. *)

val blit_changed : src:t -> dst:t -> bool
(** Copy [src] into [dst] and report whether [dst]'s value changed, in
    a single traversal. Widths must match. *)

val add_into : dst:t -> t -> t -> unit
val sub_into : dst:t -> t -> t -> unit
val mul_into : dst:t -> t -> t -> unit
val logand_into : dst:t -> t -> t -> unit
val logor_into : dst:t -> t -> t -> unit
val logxor_into : dst:t -> t -> t -> unit
val lognot_into : dst:t -> t -> unit

val eq_into : dst:t -> t -> t -> unit
(** [dst] must be 1 bit wide. *)

val lt_into : dst:t -> t -> t -> unit
(** [dst] must be 1 bit wide. *)

val select_into : dst:t -> t -> high:int -> low:int -> unit
(** [dst] must be [high - low + 1] bits wide and must not alias the
    source. *)

val concat_msb_into : dst:t -> t array -> unit
(** Parts are given MSB first, as in {!concat_msb}; [dst] must have the
    summed width and must not alias any part. *)

(** {1 Limb (bit-plane) access}

    Raw access to the underlying 64-bit limbs, LSB limb first. The
    batched simulator lays a width-[W] signal over 64 lanes out as a
    width-[W*64] vector whose limb [b] is the bit-plane of bit [b]
    across all lanes; its plane-serial kernels (ripple add, compare,
    mux masks) work limb-at-a-time through {!unsafe_data}. *)

val limb_count : t -> int
(** Number of 64-bit limbs backing the vector. *)

val get_limb : t -> int -> int64
(** [get_limb t i] is limb [i] (bits [64*i .. 64*i+63], zero-padded in
    the top limb). *)

val set_limb : t -> int -> int64 -> unit
(** [set_limb t i v] overwrites limb [i]; bits beyond [width] in the
    top limb are masked off to keep the vector normalized. *)

val unsafe_data : t -> Bytes.t
(** The vector's storage itself, aliased, not copied: bytes [0..7] hold
    the width and must not be written; limb [i] is the native-endian
    64-bit word at byte offset [limb_offset i]. For inner-loop kernels
    (the batched simulation engine and its plane-level harnesses) that
    read limbs through {!get64} rather than a call per limb, which
    would box every value. Writing
    through it bypasses normalization: only sound when the width is a
    whole number of limbs ([width mod 64 = 0]), as every batched
    simulation buffer is, or when the bits written lie below [width] —
    an unnormalized top limb breaks [equal]/[compare]. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
(** Unchecked native-endian 64-bit load at a byte offset. A primitive,
    so it is inlined in every caller and the value it loads is not
    boxed: [get64 (unsafe_data t) (limb_offset i)] is limb [i]. *)

val limb_offset : int -> int
(** Byte offset of limb [i] in {!unsafe_data}. *)

(** {1 Reduction} *)

val reduce_or : t -> t
(** 1-bit OR of all bits. *)

val reduce_and : t -> t
val popcount : t -> int

(** {1 Signed views} *)

val to_signed_int : t -> int
(** Interpret as two's complement; raises if it does not fit an int. *)
