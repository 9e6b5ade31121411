(** Fault injection for {!Cyclesim} runs.

    Three fault classes, covering the usual soft-error taxonomy:

    - [Reg_flip] — a single-event upset in a flip-flop: one bit of the
      register's state is inverted between two clock edges.
    - [Mem_flip] — an SEU in a memory array (block RAM or the external
      SRAM model): one bit of one word is inverted in place.
    - [Stuck_at] — a node forced to a constant for a bounded window
      ([cycles <= 0] pins it for the rest of the run), via
      {!Cyclesim.force}.

    Faults are either injected immediately or scheduled on an injector
    and released by calling {!step} once per simulated cycle. Campaigns
    generated by {!random_campaign} are deterministic in the seed. *)

type fault =
  | Reg_flip of { reg : Signal.t; bit : int }
  | Mem_flip of { memory : Signal.memory; addr : int; bit : int }
  | Stuck_at of { signal : Signal.t; value : Bits.t; cycles : int }

type event = { at : int; fault : fault }

val describe : fault -> string
val describe_event : event -> string

val describe_in : Circuit.t -> fault -> string
val describe_event_in : Circuit.t -> event -> string
(** Like {!describe}/{!describe_event}, but unnamed signals are
    labelled by their structural position in [Circuit.registers]
    ([reg#k]) instead of the process-global uid, so the description is
    identical across rebuilds of the same design — required for
    bit-identical campaign reports between serial and domain-sharded
    runs. *)

type t
(** An injector bound to one simulator instance. *)

val create : Cyclesim.t -> t

val inject : t -> fault -> unit
(** Apply a fault right now (between clock edges). *)

val schedule : t -> at:int -> fault -> unit
(** Apply the fault when the simulator's cycle count reaches [at]. *)

val step : t -> unit
(** Apply due faults and expire bounded [Stuck_at] windows. Call once
    per simulation loop iteration, before [Cyclesim.cycle]. *)

val applied : t -> event list
(** Faults applied so far, oldest first, stamped with the cycle at
    which they actually landed. *)

val pending : t -> event list

val idle : t -> bool
(** Nothing left to do: no injection pending and no [Stuck_at] release
    scheduled, so every later {!step} leaves the simulator alone. *)

val random_fault : Random.State.t -> Circuit.t -> fault
(** One random fault drawn over the circuit's registers and memories.
    Raises if the circuit holds no state at all. *)

val random_campaign : seed:int -> n:int -> max_cycle:int -> Circuit.t -> event list
(** [n] random faults at random cycles in [0, max_cycle), deterministic
    in [seed]. *)
