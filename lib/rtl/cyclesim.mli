(** Cycle-accurate simulation of a {!Circuit.t}.

    The simulator evaluates the combinational graph from the current
    register/memory state and the input port values, then performs the
    clock edge (register updates, memory writes, synchronous reads).

    Usage per cycle: write input refs (or {!drive}), call {!cycle},
    read output refs. Output refs hold the settled pre-edge values —
    what a register downstream would capture at that edge.

    Two engines implement these semantics. [Compiled] (the default) is
    {!Simcompile}: a one-time compile pass producing specialized
    per-node closures with activity-based skipping. Its node kernels
    allocate nothing; a steady-state cycle allocates only a copy of
    each output whose value moved (output refs hold immutable values)
    and of each memory word written. [Reference] is the original
    tree-walking interpreter, kept as the trusted baseline the compiled
    engine is differentially tested against. Both are observationally
    identical through this API. *)

type t

type engine =
  | Reference  (** naive interpreter — slow, auditable baseline *)
  | Compiled  (** compiled levelized engine with activity skipping *)

val create : ?engine:engine -> Circuit.t -> t
(** Defaults to [Compiled]. Equivalent to [of_plan (plan circuit)]. *)

val engine : t -> engine

(** {1 Shared compiled plans}

    The expensive half of [create] — elaboration bookkeeping and (for
    the compiled engine) the netlist compile pass — is reified as an
    immutable {!plan}. Campaigns that simulate one circuit
    configuration many times build the plan once and stamp out a cheap
    instance per worker domain; a plan holds no mutable simulation
    state and is safe to share read-only across domains, while
    instances never alias each other's buffers. *)

type plan

val plan : ?engine:engine -> Circuit.t -> plan
(** Compile a shareable plan. Defaults to [Compiled]. *)

val of_plan : plan -> t
(** A fresh simulator over the plan: power-on state, zeroed inputs and
    memories, no forces. Instances are fully independent. *)

val plan_engine : plan -> engine
val plan_circuit : plan -> Circuit.t

(** {1 Batched (bit-parallel) simulation}

    {!Simbatch} packs up to 64 independent instances of the circuit
    into the bit-lanes of each machine word and evaluates them
    together. [instantiate_batched] builds a batch from a shared
    compiled plan; [lane_view] presents one lane through the scalar
    [t] API so monitors, fault injectors and stimulus drivers run
    unchanged per lane.

    The one global operation is the clock: {!cycle}, {!settle} and
    {!reset} on a lane view advance the {e whole batch}. A batch
    driver must therefore clock once per time step for all lanes
    (e.g. via any single lane view), never once per lane. Everything
    else on a lane view — ports, [peek]/[poke], [force]/[release],
    [memory_contents] — touches only that lane. *)

val instantiate_batched : ?lanes:int -> plan -> Simbatch.t
(** Fresh batched simulator over a compiled plan. [lanes] defaults to
    {!Simbatch.lane_bits} (64) and must be within that range. Raises
    [Invalid_argument] on a [Reference] plan: only the compiled engine
    has a batched form. *)

val lane_view : Simbatch.t -> int -> t
(** Scalar view of one lane. Raises on an out-of-range lane. *)

val circuit : t -> Circuit.t

val in_port : t -> string -> Bits.t ref
(** Mutable input port value. Raises if the name is unknown. Widths are
    checked when the cycle runs; prefer {!drive} to catch a wrong-width
    value at the call site that wrote it. *)

val drive : t -> string -> Bits.t -> unit
(** [drive t name value] sets the input port, validating the width
    immediately — raises [Invalid_argument] naming the port if [value]
    is not the port's declared width, instead of failing later inside
    the next settle. *)

val bind_input : t -> string -> width:int -> Bits.t ref
(** [bind_input t name ~width] is [in_port t name], after checking once
    that [width]-bit values may be driven into it: raises exactly as
    {!drive} would for a value of that width. Harnesses that drive a
    port every cycle bind it once and assign the ref. *)

val out_port : t -> string -> Bits.t ref
(** Settled output value as of the last {!cycle}. Initialized to zeros
    at the port's declared width before the first settle. *)

val cycle : t -> unit
(** Settle combinational logic, record outputs, then apply the clock
    edge. *)

val settle : t -> unit
(** Settle combinational logic and refresh the output refs without
    clocking — useful to observe outputs after changing inputs
    mid-cycle. *)

val reset : t -> unit
(** Restore registers to their init values, clear memories to zero,
    release all forced signals, drive all input ports back to zero,
    and re-settle. After [reset] a simulator is indistinguishable from
    a freshly created one — the property per-shard instance reuse in
    campaigns relies on. *)

(** {1 Fault-injection hooks}

    Used by {!Fault} to model stuck-at faults and single-event upsets;
    see that module for campaign-level helpers. *)

val force : t -> Signal.t -> Bits.t -> unit
(** Stuck-at override: from the next settle on, the signal evaluates to
    the given value regardless of its drivers, until {!release}d.
    Registers keep updating their internal state from their (possibly
    forced) inputs; only the forced node's observed value is pinned. *)

val release : t -> Signal.t -> unit
val release_all : t -> unit

val forced : t -> Signal.t -> Bits.t option
(** The active override on a signal, if any. *)

val peek_state : t -> Signal.t -> Bits.t
(** Internal state of a register or synchronous-read node (the value it
    will present at the next settle). Raises on stateless nodes. *)

val poke_state : t -> Signal.t -> Bits.t -> unit
(** Overwrite that state — an SEU bit-flip is
    [poke_state sim r (Bits.logxor (peek_state sim r) mask)]. Takes
    effect at the next settle. *)

val cycle_count : t -> int

val peek : t -> Signal.t -> Bits.t
(** Current settled value of any signal in the circuit (for debugging
    and waveform dumps). Raises if the signal is not in the circuit. *)

val reader : t -> Signal.t -> Bits.t -> unit
(** [reader t s] resolves [s] once and returns a function that copies
    its current settled value — what {!peek} would return — into a
    buffer of the signal's width. For harnesses that read the same
    signals every cycle: on the compiled engine the returned function
    allocates nothing. Raises if the signal is not in the circuit. *)

val memory_contents : t -> Signal.memory -> Bits.t array
(** Live view of a memory's backing store. Elements may be replaced
    (fault injection does); the compiled engine conservatively assumes
    the caller will and re-reads affected nodes at the next settle. *)

(** {1 Activity instrumentation} *)

type activity = {
  settles : int;  (** settle passes run so far *)
  node_evals : int;  (** node evaluations actually performed *)
  total_nodes : int;  (** nodes in the schedule *)
  kind_evals : (string * int) list;
      (** [node_evals] bucketed by {!Signal.prim_kind_names}; zero
          buckets omitted *)
}

val activity : t -> activity
(** Monotonic counters. On the compiled engine, [node_evals] grows only
    for nodes whose sources changed — the skipping tests and benches
    assert on its deltas. On the reference engine every settle
    evaluates every node (so [kind_evals] is the per-kind node count
    times [settles]). *)
