(* Seeded, deterministic fault campaigns over a Cyclesim instance. *)

type fault =
  | Reg_flip of { reg : Signal.t; bit : int }
  | Mem_flip of { memory : Signal.memory; addr : int; bit : int }
  | Stuck_at of { signal : Signal.t; value : Bits.t; cycles : int }

type event = { at : int; fault : fault }

let signal_label s =
  match Signal.names s with
  | n :: _ -> n
  | [] -> Printf.sprintf "uid%d" (Signal.uid s)

let describe = function
  | Reg_flip { reg; bit } ->
    Printf.sprintf "seu reg %s bit %d" (signal_label reg) bit
  | Mem_flip { memory; addr; bit } ->
    Printf.sprintf "seu mem %s[%d] bit %d" (Signal.memory_name memory) addr bit
  | Stuck_at { signal; value; cycles } ->
    Printf.sprintf "stuck %s = %s for %s" (signal_label signal)
      (Bits.to_string value)
      (if cycles <= 0 then "ever" else Printf.sprintf "%d cycles" cycles)

let describe_event e = Printf.sprintf "@%d %s" e.at (describe e.fault)

(* Uid-independent description: uids are minted from a process-global
   counter, so the [uid%d] fallback above differs between two builds of
   the same design (and between serial and sharded campaigns, which
   elaborate one fresh circuit per shard). Within one circuit the
   schedule position of a register is structural — identical across
   rebuilds — so unnamed signals are labelled by position instead. *)
let signal_label_in circuit s =
  match Signal.names s with
  | n :: _ -> n
  | [] -> (
    let position =
      List.find_index
        (fun r -> Signal.uid r = Signal.uid s)
        (Circuit.registers circuit)
    in
    match position with
    | Some i -> Printf.sprintf "reg#%d" i
    | None -> Printf.sprintf "uid%d" (Signal.uid s))

let describe_in circuit = function
  | Reg_flip { reg; bit } ->
    Printf.sprintf "seu reg %s bit %d" (signal_label_in circuit reg) bit
  | Mem_flip _ as f -> describe f
  | Stuck_at { signal; value; cycles } ->
    Printf.sprintf "stuck %s = %s for %s"
      (signal_label_in circuit signal)
      (Bits.to_string value)
      (if cycles <= 0 then "ever" else Printf.sprintf "%d cycles" cycles)

let describe_event_in circuit e =
  Printf.sprintf "@%d %s" e.at (describe_in circuit e.fault)

type t = {
  sim : Cyclesim.t;
  mutable pending : event list; (* sorted by [at] *)
  mutable releases : (int * Signal.t) list;
  mutable applied : event list; (* newest first *)
}

let create sim = { sim; pending = []; releases = []; applied = [] }

let schedule t ~at fault =
  t.pending <-
    List.stable_sort (fun a b -> compare a.at b.at) ({ at; fault } :: t.pending)

let inject t fault =
  (match fault with
  | Reg_flip { reg; bit } ->
    let state = Cyclesim.peek_state t.sim reg in
    let w = Bits.width state in
    if bit < 0 || bit >= w then invalid_arg "Fault.inject: bit out of range";
    let mask = Bits.sll (Bits.one w) bit in
    Cyclesim.poke_state t.sim reg (Bits.logxor state mask)
  | Mem_flip { memory; addr; bit } ->
    let arr = Cyclesim.memory_contents t.sim memory in
    if addr < 0 || addr >= Array.length arr then
      invalid_arg "Fault.inject: address out of range";
    let w = Signal.memory_width memory in
    if bit < 0 || bit >= w then invalid_arg "Fault.inject: bit out of range";
    let mask = Bits.sll (Bits.one w) bit in
    arr.(addr) <- Bits.logxor arr.(addr) mask
  | Stuck_at { signal; value; cycles } ->
    Cyclesim.force t.sim signal value;
    if cycles > 0 then
      t.releases <-
        (Cyclesim.cycle_count t.sim + cycles, signal) :: t.releases);
  t.applied <- { at = Cyclesim.cycle_count t.sim; fault } :: t.applied

(* Whether any scheduled injection is due, or any release expired, at
   cycle [now]: the common case of a step is that nothing is, and a
   batched campaign steps every lane's injector on every cycle. *)
let rec any_due now = function
  | [] -> false
  | e :: rest -> e.at <= now || any_due now rest

let rec any_expired now = function
  | [] -> false
  | (c, _) :: rest -> c <= now || any_expired now rest

(* Apply everything due at the current cycle count. Call once per
   simulation step, before [Cyclesim.cycle]. *)
let step t =
  let now = Cyclesim.cycle_count t.sim in
  if any_due now t.pending then begin
    let due, rest = List.partition (fun e -> e.at <= now) t.pending in
    t.pending <- rest;
    List.iter (fun e -> inject t e.fault) due
  end;
  if any_expired now t.releases then begin
    let expired, live = List.partition (fun (c, _) -> c <= now) t.releases in
    t.releases <- live;
    List.iter (fun (_, s) -> Cyclesim.release t.sim s) expired
  end

let applied t = List.rev t.applied
let pending t = t.pending
let idle t = t.pending = [] && t.releases = []

(* --- Campaign generation ------------------------------------------------ *)

let random_fault rng circuit =
  let regs = Array.of_list (Circuit.registers circuit) in
  let mems =
    Array.of_list
      (List.filter
         (fun m -> Signal.memory_size m > 0)
         (Circuit.memories circuit))
  in
  let pick_reg () =
    let reg = regs.(Random.State.int rng (Array.length regs)) in
    Reg_flip { reg; bit = Random.State.int rng (Signal.width reg) }
  in
  let pick_mem () =
    let memory = mems.(Random.State.int rng (Array.length mems)) in
    Mem_flip
      {
        memory;
        addr = Random.State.int rng (Signal.memory_size memory);
        bit = Random.State.int rng (Signal.memory_width memory);
      }
  in
  let pick_stuck () =
    let reg = regs.(Random.State.int rng (Array.length regs)) in
    let w = Signal.width reg in
    Stuck_at
      {
        signal = reg;
        value =
          (if Random.State.bool rng then Bits.zero w
           else Bits.ones w);
        cycles = 1 + Random.State.int rng 32;
      }
  in
  if Array.length regs = 0 && Array.length mems = 0 then
    invalid_arg "Fault.random_fault: circuit has no state to corrupt";
  let choices =
    (if Array.length regs > 0 then [ pick_reg; pick_stuck ] else [])
    @ if Array.length mems > 0 then [ pick_mem ] else []
  in
  (List.nth choices (Random.State.int rng (List.length choices))) ()

let random_campaign ~seed ~n ~max_cycle circuit =
  if n < 0 then invalid_arg "Fault.random_campaign: negative fault count";
  if max_cycle < 1 then invalid_arg "Fault.random_campaign: max_cycle < 1";
  let rng = Random.State.make [| 0x4655; seed |] in
  List.init n (fun _ ->
      { at = Random.State.int rng max_cycle; fault = random_fault rng circuit })
