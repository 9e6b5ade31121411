(** Batched (bit-parallel) compiled simulation engine.

    Packs up to 64 independent instances of one circuit into the
    bit-lanes of each machine word — the classic parallel-pattern
    fault-simulation trick. A width-[w] signal's batched value is a
    {!Bits.t} of width [w * 64] stored transposed: limb [b] is the
    bit-plane of bit [b] across all lanes, so the bitwise kernels
    (And/Or/Xor/Not, Select, Concat) evaluate all lanes with the
    ordinary scalar [Bits] operations, arithmetic and comparisons run
    plane-serially with 64-lane carry/borrow words, and only
    multiplies and memory ports fall back to per-lane evaluation.

    Instances are built from the same immutable {!Simcompile.plan} the
    scalar engine uses, and follow the same levelized dirty-flag
    settle, publish-on-change, and three-phase clock edge — each lane's
    trajectory is bit-identical to a scalar simulation of the same
    stimulus (the differential suite holds this). All per-lane
    observation and fault-injection entry points take an explicit
    [~lane]; [cycle]/[settle]/[reset] advance the whole batch at once.

    Use {!Cyclesim.instantiate_batched} and {!Cyclesim.lane_view}
    rather than this module directly unless you need engine
    internals. *)

type t

val lane_bits : int
(** Lanes per machine word: 64. *)

val instantiate : ?lanes:int -> Simcompile.plan -> t
(** Fresh batched simulator over a shared plan. [lanes] defaults to
    {!lane_bits}; must be within [1..lane_bits]. All lanes start at
    power-on state with zeroed inputs and memories. *)

val lanes : t -> int
val plan : t -> Simcompile.plan
val circuit : t -> Circuit.t

(** {1 Whole-batch stepping}

    One call advances every lane together; there is no per-lane
    clock. *)

val cycle : t -> unit
val settle : t -> unit

val reset : t -> unit
(** Every lane back to power-on state: forces cleared, registers to
    init, memories zeroed, inputs zeroed, re-settled — indistinguishable
    from a fresh [instantiate] of the same plan and lane count. *)

val cycle_count : t -> int

val changed_lanes : t -> int64
(** The lanes (bit [l] for lane [l]) whose register or sync-read
    state, memory words, driven input planes or forces moved during
    the last {!cycle}: from the end of the cycle before it (so the
    drives, forces and pokes made between the two count) to the end of
    its own clock edge. Every path that moves lane state reports here —
    edge commits, write ports, {!write_input_plane}, per-lane input
    refs, {!force}/{!release}, {!poke_state}, {!memory_contents} (the
    caller may write the array it returns) and {!reset} (every lane).
    A clear bit therefore means the lane's state at the end of the
    cycle equals its state at the end of the one before and it was
    driven with the same inputs and forces; a set bit may be
    conservative (a [force] to the value already forced). *)

(** {1 Per-lane ports and observation}

    Lane indices are checked against the instantiated lane count. *)

val in_port : t -> lane:int -> string -> Bits.t ref
(** Scalar input ref for one lane; packed into the transposed batch at
    the next settle (width-checked there, like the scalar engines). *)

val input : t -> lane:int -> string -> Bits.t ref * int
(** [in_port] and the port's declared width, from one lookup. *)

val out_port : t -> lane:int -> string -> Bits.t ref
(** Scalar settled output for one lane, refreshed after each settle. *)

val peek : t -> lane:int -> Signal.t -> Bits.t

val reader : t -> lane:int -> Signal.t -> Bits.t -> unit
(** See {!Cyclesim.reader}. *)

val peek_state : t -> lane:int -> Signal.t -> Bits.t
val poke_state : t -> lane:int -> Signal.t -> Bits.t -> unit

val memory_contents : t -> lane:int -> Signal.memory -> Bits.t array
(** The lane's private backing store (each lane owns one); mutations
    are lane-isolated, and async readers are conservatively re-read at
    the next settle. *)

(** {1 Per-lane fault injection}

    Forces are lane-addressed: a force in lane [k] blends only lane
    [k]'s bits of the node's published value, so concurrent faults in
    different lanes never interact. *)

val force : t -> lane:int -> Signal.t -> Bits.t -> unit
val release : t -> lane:int -> Signal.t -> unit

val release_all : t -> lane:int -> unit
(** Release every force in one lane (other lanes' forces survive). *)

val forced : t -> lane:int -> Signal.t -> Bits.t option

(** {1 Plane-level access}

    For batched harnesses (stimulus drivers, monitors, collectors)
    that operate on whole bit-planes instead of per-lane scalars: one
    64-lane word read or written per plane. Resolve indices once at
    construction; the per-cycle path is then a few word operations. *)

val node_index : t -> Signal.t -> int
(** Plan index of a signal, for {!published_data}. *)

val input_index : t -> string -> int
(** Index of a named input port, for {!write_input_plane}. *)

val out_node : t -> string -> int
(** Plan index of a named output port's node, for {!published_data}. *)

val published_data : t -> int -> Bytes.t
(** Node [i]'s published (settled) value as raw storage, aliased (see
    {!Bits.unsafe_data}): plane [p] — bit [l] is bit [p] of lane [l] —
    is limb [p], [Bits.get64 d (Bits.limb_offset p)]. Same phase as
    {!peek}: the settled pre-edge value of the cycle that just
    completed. Read-only. {!Bits.get64} is an inlined primitive, so
    harness loops box no plane value per cycle. *)

val write_input_plane : t -> int -> plane:int -> mask:int64 -> bits:int64 -> unit
(** Overwrite the [mask] lanes of input [k]'s bit-plane [plane] with
    the corresponding bits of [bits]; other lanes keep their previous
    value. Takes effect at the next settle, like ref assignment. Do
    not mix with per-lane ref drives of the same port: a ref
    assignment to lane [l] overwrites all of lane [l]'s planes at the
    next settle. *)

(** {1 Activity counters}

    Same meaning as {!Simcompile}'s: one node evaluation covers all
    lanes at once. *)

val settles : t -> int
val node_evals : t -> int
val total_nodes : t -> int
val kind_evals : t -> int array
