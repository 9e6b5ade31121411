(* Compiled, levelized simulation engine.

   Compilation is split in two so that the expensive part can be shared
   across domains:

   - [plan] walks the scheduled netlist once and produces an immutable
     description of the circuit's execution: the levelized schedule,
     per-node operation descriptors with operand positions resolved to
     schedule indices, the combinational fan-out relation, clock-edge
     descriptors and memory geometry.  A plan holds no mutable
     simulation state and is safe to share read-only between domains.

   - [instantiate] turns a plan into a runnable simulator by allocating
     the per-instance mutable state (value buffers, dirty flags, force
     slots, register/memory state) and building per-node closures whose
     operand buffers were resolved from the plan's indices — the hot
     loop never touches a Hashtbl, an assoc list or a pattern match.
     Instances share the plan's descriptor arrays (never written after
     [plan] returns) but never share a mutable buffer: every Bits value
     reachable from the plan is only ever used as a blit/copy *source*.

   Closures compute into a private destination buffer (using the
   [Bits.*_into] in-place variants) and then "publish": compare against
   the node's current buffer, blit only on change, and mark
   combinational fan-out dirty. Because the schedule is topologically
   sorted, fan-out indices are always greater than the producer's, so
   one ascending sweep over the dirty flags settles the whole netlist;
   the sweep stops early once no dirty node remains.

   Activity-based skipping falls out of the dirty flags: a cone whose
   register/memory/input sources did not change since the last settle
   is never marked and never re-evaluated. Dirtiness sources are:
   - inputs whose driven value differs from the published one,
   - registers and sync reads whose committed state changed at the edge,
   - memory writes (mark the memory's async readers),
   - [force]/[release]/[poke_state], and [memory_contents] (the caller
     may mutate the array, so its async readers are conservatively
     marked),
   - [reset] (everything).

   Internal buffers are mutated in place and never handed out: [peek],
   [peek_state] and output-ref refreshes return copies. Memory elements
   stay immutable values — a write replaces the element with a copy of
   the data buffer — so the arrays exposed by [memory_contents] behave
   exactly like the reference engine's. *)

type input = { in_name : string; in_index : int; in_ref : Bits.t ref }

(* Per-node operation descriptors: operands resolved to schedule
   indices at plan time, buffers at instantiate time. *)
type op =
  | O_const
  | O_input of int (* slot in the inputs array *)
  | O_op2 of Signal.op2 * int * int
  | O_not of int
  | O_concat of int array
  | O_select of { src : int; high : int; low : int }
  | O_mux of { select : int; cases : int array }
  | O_state (* Reg / Mem_read_sync present their committed state *)
  | O_mem_read_async of { mem_uid : int; mem_width : int; addr : int }
  | O_wire of int

(* Clock-edge descriptors, in schedule order (the order the phase
   loops run in — identical across instances and to the pre-split
   engine). *)
type edge =
  | E_reg of {
      index : int;
      d : int;
      enable : int option;
      clear : int option;
      clear_to : Bits.t; (* blit source only; shared, never written *)
    }
  | E_sync_read of {
      index : int;
      mem_uid : int;
      mem_width : int;
      addr : int;
      enable : int option;
    }

type write_port = { wp_mem_uid : int; wp_enable : int; wp_addr : int; wp_data : int }
(* [m_zero] is the power-on word, shared by every instance and lane
   (see the interface). *)
type mem_spec = { m_uid : int; m_size : int; m_width : int; m_zero : Bits.t }

type plan = {
  p_circuit : Circuit.t;
  p_signals : Signal.t array; (* in schedule order *)
  p_index_of_uid : (int, int) Hashtbl.t; (* read-only after [plan] *)
  p_fanout : int array array; (* combinational dependents; always later *)
  p_kinds : int array; (* Signal.prim_kind per node *)
  p_buf_init : Bits.t array; (* copy templates: const / reg init / zero *)
  p_state_init : Bits.t option array; (* Reg / Mem_read_sync only *)
  p_ops : op array;
  p_edges : edge array;
  p_write_ports : write_port array;
  p_mems : mem_spec array;
  p_mem_readers : (int, int array) Hashtbl.t; (* read-only after [plan] *)
  p_inputs : (string * int) array; (* port name, schedule index *)
  p_outputs : (string * int) list;
}

type t = {
  plan : plan;
  signals : Signal.t array; (* == plan.p_signals (shared, immutable) *)
  bufs : Bits.t array; (* published value per node, mutated in place *)
  evals : (unit -> unit) array;
  fanout : int array array; (* == plan.p_fanout (shared, immutable) *)
  dirty : bool array;
  mutable ndirty : int;
  forces : Bits.t option array;
  state : Bits.t option array; (* Reg / Mem_read_sync only *)
  next_state : Bits.t option array;
  index_of_uid : (int, int) Hashtbl.t; (* == plan's (shared, read-only) *)
  mem_arrays : (int, Bits.t array) Hashtbl.t; (* per-instance arrays *)
  mem_readers : (int, int array) Hashtbl.t; (* == plan's (shared) *)
  inputs : input array;
  output_refs : (string * int * Bits.t ref) array;
  (* Edge closures are built after the record exists (they capture it
     for [mark]), hence mutable and assigned in place — never replace
     the record itself: evaluation closures alias it. *)
  mutable edge1 : (unit -> unit) array; (* sample next state (pre-edge) *)
  mutable writes : (unit -> unit) array; (* memory write ports *)
  mutable commits : (unit -> unit) array; (* commit, marks changed nodes *)
  mutable cycles : int;
  mutable settles : int;
  mutable node_evals : int;
  kinds : int array; (* == plan.p_kinds (shared, immutable) *)
  kind_evals : int array;
}

let mark t j =
  if not t.dirty.(j) then begin
    t.dirty.(j) <- true;
    t.ndirty <- t.ndirty + 1
  end

(* Publish [v] as node [i]'s settled value: blit-on-change and mark the
   combinational fan-out. [v] must have the node's width. *)
let publish t i v =
  if Bits.blit_changed ~src:v ~dst:t.bufs.(i) then begin
    let fo = t.fanout.(i) in
    for k = 0 to Array.length fo - 1 do
      mark t fo.(k)
    done
  end

(* What can change a node's settled value within one settle — the edge
   relation the dirty flags propagate along. State-presenting nodes
   have no combinational inputs; async reads depend only on the
   address (array contents change at clock edges, handled separately). *)
let comb_deps s =
  match Signal.prim s with
  | Signal.Reg _ | Signal.Mem_read_sync _ -> []
  | Signal.Mem_read_async { addr; _ } -> [ addr ]
  | _ -> Signal.deps s

let plan circuit =
  let signals = Array.of_list (Circuit.signals circuit) in
  let n = Array.length signals in
  let index_of_uid = Hashtbl.create (max 17 (2 * n)) in
  Array.iteri (fun i s -> Hashtbl.replace index_of_uid (Signal.uid s) i) signals;
  let idx s = Hashtbl.find index_of_uid (Signal.uid s) in
  let buf_init =
    Array.map
      (fun s ->
        match Signal.prim s with
        | Signal.Const b -> b
        | Signal.Reg { init; _ } -> init
        | _ -> Bits.zero (Signal.width s))
      signals
  in
  let fan = Array.make n [] in
  Array.iteri
    (fun i s ->
      List.iter (fun d -> fan.(idx d) <- i :: fan.(idx d)) (comb_deps s))
    signals;
  let fanout = Array.map (fun l -> Array.of_list (List.rev l)) fan in
  let state_init = Array.make n None in
  Array.iteri
    (fun i s ->
      match Signal.prim s with
      | Signal.Reg { init; _ } -> state_init.(i) <- Some init
      | Signal.Mem_read_sync { memory; _ } ->
        state_init.(i) <- Some (Bits.zero (Signal.memory_width memory))
      | _ -> ())
    signals;
  let inputs =
    Array.of_list
      (List.map (fun (name, s) -> (name, idx s)) (Circuit.inputs circuit))
  in
  let input_slot name =
    let rec go k =
      if k >= Array.length inputs then assert false
      else if String.equal (fst inputs.(k)) name then k
      else go (k + 1)
    in
    go 0
  in
  let ops =
    Array.map
      (fun s ->
        match Signal.prim s with
        | Signal.Const _ -> O_const
        | Signal.Input name -> O_input (input_slot name)
        | Signal.Op2 (op, a, b) -> O_op2 (op, idx a, idx b)
        | Signal.Not a -> O_not (idx a)
        | Signal.Concat parts ->
          O_concat (Array.of_list (List.map idx parts))
        | Signal.Select { src; high; low } ->
          O_select { src = idx src; high; low }
        | Signal.Mux { select; cases } ->
          O_mux
            { select = idx select; cases = Array.of_list (List.map idx cases) }
        | Signal.Reg _ | Signal.Mem_read_sync _ -> O_state
        | Signal.Mem_read_async { memory; addr } ->
          O_mem_read_async
            {
              mem_uid = Signal.memory_uid memory;
              mem_width = Signal.memory_width memory;
              addr = idx addr;
            }
        | Signal.Wire { driver = Some d } -> O_wire (idx d)
        | Signal.Wire { driver = None } -> assert false)
      signals
  in
  let edges = ref [] in
  Array.iteri
    (fun i s ->
      match Signal.prim s with
      | Signal.Reg { d; enable; clear; clear_to; _ } ->
        edges :=
          E_reg
            {
              index = i;
              d = idx d;
              enable = Option.map idx enable;
              clear = Option.map idx clear;
              clear_to;
            }
          :: !edges
      | Signal.Mem_read_sync { memory; addr; enable } ->
        edges :=
          E_sync_read
            {
              index = i;
              mem_uid = Signal.memory_uid memory;
              mem_width = Signal.memory_width memory;
              addr = idx addr;
              enable = Option.map idx enable;
            }
          :: !edges
      | _ -> ())
    signals;
  let write_ports = ref [] in
  List.iter
    (fun m ->
      List.iter
        (fun (enable, addr, data) ->
          write_ports :=
            {
              wp_mem_uid = Signal.memory_uid m;
              wp_enable = idx enable;
              wp_addr = idx addr;
              wp_data = idx data;
            }
            :: !write_ports)
        (Signal.memory_write_ports m))
    (Circuit.memories circuit);
  let mems =
    Array.of_list
      (List.map
         (fun m ->
           {
             m_uid = Signal.memory_uid m;
             m_size = Signal.memory_size m;
             m_width = Signal.memory_width m;
             m_zero = Bits.zero (Signal.memory_width m);
           })
         (Circuit.memories circuit))
  in
  let mem_readers = Hashtbl.create 7 in
  Array.iteri
    (fun i s ->
      match Signal.prim s with
      | Signal.Mem_read_async { memory; _ } ->
        let u = Signal.memory_uid memory in
        let cur =
          match Hashtbl.find_opt mem_readers u with Some l -> l | None -> []
        in
        Hashtbl.replace mem_readers u (i :: cur)
      | _ -> ())
    signals;
  let mem_readers =
    let h = Hashtbl.create 7 in
    Hashtbl.iter (fun u l -> Hashtbl.replace h u (Array.of_list l)) mem_readers;
    h
  in
  let outputs =
    List.map (fun (name, s) -> (name, idx s)) (Circuit.outputs circuit)
  in
  {
    p_circuit = circuit;
    p_signals = signals;
    p_index_of_uid = index_of_uid;
    p_fanout = fanout;
    p_kinds = Array.map Signal.prim_kind signals;
    p_buf_init = buf_init;
    p_state_init = state_init;
    p_ops = ops;
    p_edges = Array.of_list (List.rev !edges);
    p_write_ports = Array.of_list (List.rev !write_ports);
    p_mems = mems;
    p_mem_readers = mem_readers;
    p_inputs = inputs;
    p_outputs = outputs;
  }

let plan_circuit p = p.p_circuit

(* Read-only plan introspection for the batched engine (Simbatch):
   it instantiates its own lane-transposed state from the same shared
   descriptor arrays. Everything returned is owned by the plan and must
   be treated as immutable. *)
let plan_n p = Array.length p.p_signals
let plan_signal p i = p.p_signals.(i)
let plan_kinds p = p.p_kinds
let plan_buf_init p = p.p_buf_init
let plan_state_init p = p.p_state_init
let plan_fanout p = p.p_fanout
let plan_ops p = p.p_ops
let plan_edges p = p.p_edges
let plan_write_ports p = p.p_write_ports
let plan_mems p = p.p_mems

let plan_mem_readers p uid =
  match Hashtbl.find_opt p.p_mem_readers uid with Some a -> a | None -> [||]

let plan_inputs p = p.p_inputs
let plan_outputs p = p.p_outputs
let plan_index_of_uid p s = Hashtbl.find_opt p.p_index_of_uid (Signal.uid s)

let instantiate plan =
  let n = Array.length plan.p_signals in
  let width_of i = Signal.width plan.p_signals.(i) in
  let bufs = Array.map Bits.copy plan.p_buf_init in
  let state = Array.map (Option.map Bits.copy) plan.p_state_init in
  let next_state = Array.map (Option.map Bits.copy) plan.p_state_init in
  let mem_arrays = Hashtbl.create 7 in
  Array.iter
    (fun m ->
      Hashtbl.replace mem_arrays m.m_uid (Array.make m.m_size m.m_zero))
    plan.p_mems;
  let inputs =
    Array.map
      (fun (name, i) ->
        { in_name = name; in_index = i; in_ref = ref (Bits.zero (width_of i)) })
      plan.p_inputs
  in
  let output_refs =
    Array.of_list
      (List.map
         (fun (name, i) -> (name, i, ref (Bits.zero (width_of i))))
         plan.p_outputs)
  in
  let t =
    {
      plan;
      signals = plan.p_signals;
      bufs;
      evals = Array.make n (fun () -> ());
      fanout = plan.p_fanout;
      dirty = Array.make n true;
      ndirty = n;
      forces = Array.make n None;
      state;
      next_state;
      index_of_uid = plan.p_index_of_uid;
      mem_arrays;
      mem_readers = plan.p_mem_readers;
      inputs;
      output_refs;
      edge1 = [||];
      writes = [||];
      commits = [||];
      cycles = 0;
      settles = 0;
      node_evals = 0;
      kinds = plan.p_kinds;
      kind_evals = Array.make Signal.n_prim_kinds 0;
    }
  in
  (* Evaluation closures: operand indices from the plan resolved to
     this instance's buffers, once, here. *)
  Array.iteri
    (fun i op ->
      let eval =
        match op with
        | O_const ->
          (* The buffer already holds the constant and never changes. *)
          fun () -> ()
        | O_input k ->
          let r = inputs.(k).in_ref in
          fun () -> publish t i !r
        | O_op2 (op, a, b) ->
          let a = bufs.(a) and b = bufs.(b) in
          let dst = Bits.zero (width_of i) in
          let compute =
            match op with
            | Signal.Add -> fun () -> Bits.add_into ~dst a b
            | Signal.Sub -> fun () -> Bits.sub_into ~dst a b
            | Signal.Mul -> fun () -> Bits.mul_into ~dst a b
            | Signal.And -> fun () -> Bits.logand_into ~dst a b
            | Signal.Or -> fun () -> Bits.logor_into ~dst a b
            | Signal.Xor -> fun () -> Bits.logxor_into ~dst a b
            | Signal.Eq -> fun () -> Bits.eq_into ~dst a b
            | Signal.Lt -> fun () -> Bits.lt_into ~dst a b
          in
          fun () ->
            compute ();
            publish t i dst
        | O_not a ->
          let a = bufs.(a) in
          let dst = Bits.zero (width_of i) in
          fun () ->
            Bits.lognot_into ~dst a;
            publish t i dst
        | O_concat parts ->
          let parts = Array.map (fun j -> bufs.(j)) parts in
          let dst = Bits.zero (width_of i) in
          fun () ->
            Bits.concat_msb_into ~dst parts;
            publish t i dst
        | O_select { src; high; low } ->
          let src = bufs.(src) in
          let dst = Bits.zero (width_of i) in
          fun () ->
            Bits.select_into ~dst src ~high ~low;
            publish t i dst
        | O_mux { select; cases } ->
          let sel = bufs.(select) in
          let cases = Array.map (fun j -> bufs.(j)) cases in
          let n_cases = Array.length cases in
          fun () -> publish t i cases.(Signal.mux_index ~n_cases sel)
        | O_state ->
          let st = Option.get state.(i) in
          fun () -> publish t i st
        | O_mem_read_async { mem_uid; mem_width; addr } ->
          let arr = Hashtbl.find mem_arrays mem_uid in
          let addr = bufs.(addr) in
          let z = Bits.zero mem_width in
          fun () ->
            let a = Bits.to_index addr ~bound:(Array.length arr) in
            publish t i (if a < 0 then z else arr.(a))
        | O_wire d ->
          let d = bufs.(d) in
          fun () -> publish t i d
      in
      t.evals.(i) <- eval)
    plan.p_ops;
  (* Clock-edge closures. Phase 1 samples next state from settled
     pre-edge buffers (sync reads see pre-edge memory contents:
     read-first); phase 2 applies memory writes; phase 3 commits and
     marks nodes whose presented state actually changed. *)
  let edge1 = ref [] in
  let commits = ref [] in
  Array.iter
    (function
      | E_reg { index = i; d; enable; clear; clear_to } ->
        let st = Option.get state.(i) and nx = Option.get next_state.(i) in
        let d = bufs.(d) in
        let enable = Option.map (fun j -> bufs.(j)) enable in
        let clear = Option.map (fun j -> bufs.(j)) clear in
        let sample () =
          let clear_active =
            match clear with Some c -> Bits.to_bool c | None -> false
          in
          let enabled =
            match enable with Some e -> Bits.to_bool e | None -> true
          in
          if clear_active then Bits.blit ~src:clear_to ~dst:nx
          else if enabled then Bits.blit ~src:d ~dst:nx
          else Bits.blit ~src:st ~dst:nx
        in
        let commit () = if Bits.blit_changed ~src:nx ~dst:st then mark t i in
        edge1 := sample :: !edge1;
        commits := commit :: !commits
      | E_sync_read { index = i; mem_uid; mem_width; addr; enable } ->
        let st = Option.get state.(i) and nx = Option.get next_state.(i) in
        let arr = Hashtbl.find mem_arrays mem_uid in
        let addr = bufs.(addr) in
        let enable = Option.map (fun j -> bufs.(j)) enable in
        let z = Bits.zero mem_width in
        let sample () =
          let enabled =
            match enable with Some e -> Bits.to_bool e | None -> true
          in
          if enabled then begin
            let a = Bits.to_index addr ~bound:(Array.length arr) in
            Bits.blit ~src:(if a < 0 then z else arr.(a)) ~dst:nx
          end
          else Bits.blit ~src:st ~dst:nx
        in
        let commit () = if Bits.blit_changed ~src:nx ~dst:st then mark t i in
        edge1 := sample :: !edge1;
        commits := commit :: !commits)
    plan.p_edges;
  let writes = ref [] in
  Array.iter
    (fun { wp_mem_uid; wp_enable; wp_addr; wp_data } ->
      let arr = Hashtbl.find mem_arrays wp_mem_uid in
      let readers =
        match Hashtbl.find_opt plan.p_mem_readers wp_mem_uid with
        | Some a -> a
        | None -> [||]
      in
      let enable = bufs.(wp_enable)
      and addr = bufs.(wp_addr)
      and data = bufs.(wp_data) in
      let write () =
        if Bits.to_bool enable then begin
          let a = Bits.to_index addr ~bound:(Array.length arr) in
          if a >= 0 && not (Bits.equal arr.(a) data) then begin
            arr.(a) <- Bits.copy data;
            for k = 0 to Array.length readers - 1 do
              mark t readers.(k)
            done
          end
        end
      in
      writes := write :: !writes)
    plan.p_write_ports;
  t.edge1 <- Array.of_list (List.rev !edge1);
  t.writes <- Array.of_list (List.rev !writes);
  t.commits <- Array.of_list (List.rev !commits);
  t

let compile circuit = instantiate (plan circuit)

let circuit t = t.plan.p_circuit

let index t s =
  match Hashtbl.find_opt t.index_of_uid (Signal.uid s) with
  | Some i -> i
  | None -> invalid_arg "Cyclesim: signal not part of this circuit"

let find_input t name =
  let rec go k =
    if k >= Array.length t.inputs then
      invalid_arg (Printf.sprintf "Cyclesim: no input port named %s" name)
    else if String.equal t.inputs.(k).in_name name then t.inputs.(k)
    else go (k + 1)
  in
  go 0

let in_port t name = (find_input t name).in_ref

let input t name =
  let inp = find_input t name in
  (inp.in_ref, Signal.width t.signals.(inp.in_index))

let out_port t name =
  let rec go k =
    if k >= Array.length t.output_refs then
      invalid_arg (Printf.sprintf "Cyclesim: no output port named %s" name)
    else
      let n, _, r = t.output_refs.(k) in
      if String.equal n name then r else go (k + 1)
  in
  go 0

let settle_comb t =
  t.settles <- t.settles + 1;
  for k = 0 to Array.length t.inputs - 1 do
    let { in_name; in_index; in_ref } = t.inputs.(k) in
    let b = !in_ref in
    let w = Signal.width t.signals.(in_index) in
    if Bits.width b <> w then
      invalid_arg
        (Printf.sprintf "Cyclesim: input %s driven with width %d, expected %d"
           in_name (Bits.width b) w);
    if not (Bits.equal b t.bufs.(in_index)) then mark t in_index
  done;
  let n = Array.length t.evals in
  let i = ref 0 in
  while t.ndirty > 0 && !i < n do
    let j = !i in
    if t.dirty.(j) then begin
      t.dirty.(j) <- false;
      t.ndirty <- t.ndirty - 1;
      t.node_evals <- t.node_evals + 1;
      t.kind_evals.(t.kinds.(j)) <- t.kind_evals.(t.kinds.(j)) + 1;
      match t.forces.(j) with
      | Some f -> publish t j f
      | None -> t.evals.(j) ()
    end;
    incr i
  done

(* Output refs hold immutable values, so a moved output costs one copy. *)
let refresh_outputs t =
  for k = 0 to Array.length t.output_refs - 1 do
    let _, i, r = t.output_refs.(k) in
    if not (Bits.equal !r t.bufs.(i)) then r := Bits.copy t.bufs.(i)
  done

let settle t =
  settle_comb t;
  refresh_outputs t

let clock_edge t =
  for k = 0 to Array.length t.edge1 - 1 do
    t.edge1.(k) ()
  done;
  for k = 0 to Array.length t.writes - 1 do
    t.writes.(k) ()
  done;
  for k = 0 to Array.length t.commits - 1 do
    t.commits.(k) ()
  done

let cycle t =
  settle t;
  clock_edge t;
  t.cycles <- t.cycles + 1

let force t s b =
  let i = index t s in
  let w = Signal.width t.signals.(i) in
  if Bits.width b <> w then
    invalid_arg
      (Printf.sprintf "Cyclesim.force: value width %d, signal width %d"
         (Bits.width b) w);
  t.forces.(i) <- Some (Bits.copy b);
  mark t i

let release t s =
  let i = index t s in
  if t.forces.(i) <> None then begin
    t.forces.(i) <- None;
    mark t i
  end

let release_all t =
  for i = 0 to Array.length t.forces - 1 do
    if t.forces.(i) <> None then begin
      t.forces.(i) <- None;
      mark t i
    end
  done

let forced t s = t.forces.(index t s)

let peek t s = Bits.copy t.bufs.(index t s)

let reader t s =
  let b = t.bufs.(index t s) in
  fun dst -> Bits.blit ~src:b ~dst

let peek_state t s =
  match t.state.(index t s) with
  | Some st -> Bits.copy st
  | None -> invalid_arg "Cyclesim.peek_state: signal holds no state"

let poke_state t s b =
  let i = index t s in
  match t.state.(i) with
  | None -> invalid_arg "Cyclesim.poke_state: signal holds no state"
  | Some st ->
    if Bits.width b <> Bits.width st then
      invalid_arg "Cyclesim.poke_state: width mismatch";
    Bits.blit ~src:b ~dst:st;
    mark t i

let memory_contents t m =
  let arr = Hashtbl.find t.mem_arrays (Signal.memory_uid m) in
  (* The caller may mutate the array (fault injection does), so its
     async readers can no longer be assumed clean. *)
  (match Hashtbl.find_opt t.mem_readers (Signal.memory_uid m) with
  | Some readers -> Array.iter (fun j -> mark t j) readers
  | None -> ());
  arr

let reset t =
  Array.fill t.forces 0 (Array.length t.forces) None;
  Array.iteri
    (fun i s ->
      match Signal.prim s with
      | Signal.Reg { init; _ } ->
        Bits.blit ~src:init ~dst:(Option.get t.state.(i));
        Bits.blit ~src:init ~dst:(Option.get t.next_state.(i))
      | Signal.Mem_read_sync _ ->
        let st = Option.get t.state.(i) and nx = Option.get t.next_state.(i) in
        let z = Bits.zero (Bits.width st) in
        Bits.blit ~src:z ~dst:st;
        Bits.blit ~src:z ~dst:nx
      | _ -> ())
    t.signals;
  Array.iter
    (fun m ->
      let arr = Hashtbl.find t.mem_arrays m.m_uid in
      Array.fill arr 0 (Array.length arr) m.m_zero)
    t.plan.p_mems;
  (* Input ports go back to zero so a reused instance starts from the
     same state a freshly instantiated one would — without this, a
     stale driven value would leak into the next work item. *)
  Array.iter
    (fun { in_index; in_ref; _ } ->
      in_ref := Bits.zero (Signal.width t.signals.(in_index)))
    t.inputs;
  Array.fill t.dirty 0 (Array.length t.dirty) true;
  t.ndirty <- Array.length t.dirty;
  t.cycles <- 0;
  settle t

let cycle_count t = t.cycles
let settles t = t.settles
let node_evals t = t.node_evals
let total_nodes t = Array.length t.signals
let kind_evals t = Array.copy t.kind_evals
