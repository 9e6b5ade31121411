(** Compiled, levelized simulation engine behind {!Cyclesim}.

    Compilation is split into an immutable {!plan} and cheap mutable
    instances. [plan] runs the one-time pass over the scheduled netlist
    — levelized schedule, per-node operation descriptors with operands
    resolved to schedule indices, combinational fan-out, clock-edge and
    memory descriptors. [instantiate] allocates the per-simulator
    mutable state (value buffers, dirty flags, force slots,
    register/memory state) and builds the specialized per-node closures
    over those buffers. A plan holds no mutable simulation state, so
    one plan may be shared read-only across domains, each of which
    instantiates its own simulator; instances never alias a mutable
    buffer. [compile] is [instantiate] of a fresh single-use plan.

    This module is the engine only; use {!Cyclesim} (the stable public
    API) unless you need engine internals such as the activity
    counters. Semantics — evaluation order, clock-edge phases,
    read-first memories, force/peek/poke behaviour, error messages —
    match the reference interpreter exactly; the differential test
    suite holds the two engines cycle-equivalent. *)

type plan
(** Immutable compiled artifact: schedule, operand wiring, fan-out,
    edge and memory descriptors. Safe to share across domains. *)

type t

val plan : Circuit.t -> plan
val plan_circuit : plan -> Circuit.t

val instantiate : plan -> t
(** Fresh simulator over [plan]: new value/state buffers, cleared
    forces and dirty flags, zeroed inputs and memories. Equivalent to
    [compile (plan_circuit plan)] but skips the netlist walk. *)

val compile : Circuit.t -> t
val circuit : t -> Circuit.t

val in_port : t -> string -> Bits.t ref

val input : t -> string -> Bits.t ref * int
(** The input port's ref and its declared width, from one lookup. *)

val out_port : t -> string -> Bits.t ref

val settle : t -> unit
val cycle : t -> unit

val reset : t -> unit
(** Back to power-on state: forces cleared, registers to their init
    values, sync-read state and memories zeroed, input ports driven
    back to zero, everything marked dirty and re-settled. A reused
    instance after [reset] is indistinguishable from a fresh
    [instantiate] of the same plan. *)

val cycle_count : t -> int

val force : t -> Signal.t -> Bits.t -> unit
val release : t -> Signal.t -> unit
val release_all : t -> unit
val forced : t -> Signal.t -> Bits.t option

val peek : t -> Signal.t -> Bits.t

val reader : t -> Signal.t -> Bits.t -> unit
(** See {!Cyclesim.reader}. *)

val peek_state : t -> Signal.t -> Bits.t
val poke_state : t -> Signal.t -> Bits.t -> unit
val memory_contents : t -> Signal.memory -> Bits.t array

(** {1 Plan introspection (engine internals)}

    The batched engine ({!Simbatch}) instantiates lane-transposed
    mutable state from the same shared plan; these accessors expose the
    plan's immutable descriptor arrays for that purpose. Everything
    returned is owned by the plan: treat it as read-only. Operand
    positions are schedule indices into the plan's topological order. *)

type op =
  | O_const
  | O_input of int  (** slot in the inputs array *)
  | O_op2 of Signal.op2 * int * int
  | O_not of int
  | O_concat of int array
  | O_select of { src : int; high : int; low : int }
  | O_mux of { select : int; cases : int array }
  | O_state  (** Reg / Mem_read_sync present their committed state *)
  | O_mem_read_async of { mem_uid : int; mem_width : int; addr : int }
  | O_wire of int

type edge =
  | E_reg of {
      index : int;
      d : int;
      enable : int option;
      clear : int option;
      clear_to : Bits.t;  (** blit source only; shared, never written *)
    }
  | E_sync_read of {
      index : int;
      mem_uid : int;
      mem_width : int;
      addr : int;
      enable : int option;
    }

type write_port = { wp_mem_uid : int; wp_enable : int; wp_addr : int; wp_data : int }
type mem_spec = {
  m_uid : int;
  m_size : int;
  m_width : int;
  m_zero : Bits.t;
      (** The power-on word, shared by every instance and lane: memory
          words are immutable values (a write replaces the word), and a
          value that has left the minor heap lets [Array.make] and
          [Array.fill] of a large memory skip a forced minor collection
          and a write-barrier entry per word. *)
}

val plan_n : plan -> int
(** Number of nodes in the schedule. *)

val plan_signal : plan -> int -> Signal.t
(** Signal at a schedule index. *)

val plan_kinds : plan -> int array
(** {!Signal.prim_kind} per node. *)

val plan_buf_init : plan -> Bits.t array
(** Copy templates for the initial value buffers (const / reg init /
    zero). *)

val plan_state_init : plan -> Bits.t option array
(** Initial committed state; [Some] for Reg / Mem_read_sync only. *)

val plan_fanout : plan -> int array array
(** Combinational dependents per node; always later in the schedule. *)

val plan_ops : plan -> op array
val plan_edges : plan -> edge array
val plan_write_ports : plan -> write_port array
val plan_mems : plan -> mem_spec array

val plan_mem_readers : plan -> int -> int array
(** Async-read nodes of the memory with the given uid ([[||]] if
    none). *)

val plan_inputs : plan -> (string * int) array
val plan_outputs : plan -> (string * int) list

val plan_index_of_uid : plan -> Signal.t -> int option
(** Schedule index of a signal, [None] if not part of the circuit. *)

(** {1 Activity counters}

    Monotonic instrumentation for tests and benchmarks. *)

val settles : t -> int
(** Number of settle passes run so far. *)

val node_evals : t -> int
(** Number of node evaluations actually performed (skipped nodes are
    not counted) — the skipping tests assert on deltas of this. *)

val total_nodes : t -> int
(** Number of nodes in the compiled schedule. *)

val kind_evals : t -> int array
(** [node_evals] bucketed by {!Signal.prim_kind} (a fresh copy,
    indexed by kind code). *)
