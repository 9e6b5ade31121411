(* Two engines behind one API.

   [Naive] is the original tree-walking interpreter: it re-pattern-
   matches every node on every settle and allocates fresh values for
   every operation. It is slow but trivially auditable, which makes it
   the reference the compiled engine (in {!Simcompile}) is held
   cycle-equivalent to by the differential test suite. *)

module Naive = struct
  type node_state = {
    signal : Signal.t;
    value : Bits.t ref;
    (* Registers and synchronous memory reads hold state across cycles. *)
    mutable state : Bits.t;
    mutable next_state : Bits.t;
  }

  type t = {
    circuit : Circuit.t;
    nodes : node_state array; (* in schedule order *)
    by_uid : (int, node_state) Hashtbl.t;
    inputs : (string * node_state) list; (* value refs are the port refs *)
    output_refs : (string * Bits.t ref) list;
    mem_arrays : (int, Bits.t array) Hashtbl.t;
    (* Stuck-at overrides (fault injection): uid -> forced value,
       applied after every combinational evaluation of the node. *)
    forces : (int, Bits.t) Hashtbl.t;
    mutable cycles : int;
    mutable settles : int;
    mutable node_evals : int;
  }

  let node t s =
    match Hashtbl.find_opt t.by_uid (Signal.uid s) with
    | Some ns -> ns
    | None -> invalid_arg "Cyclesim: signal not part of this circuit"

  let value t s = !((node t s).value)

  let create circuit =
    let schedule = Circuit.signals circuit in
    let by_uid = Hashtbl.create 997 in
    let nodes =
      Array.of_list
        (List.map
           (fun s ->
             let init =
               match Signal.prim s with
               | Signal.Reg { init; _ } -> init
               | _ -> Bits.zero (Signal.width s)
             in
             let ns =
               { signal = s; value = ref init; state = init; next_state = init }
             in
             Hashtbl.replace by_uid (Signal.uid s) ns;
             ns)
           schedule)
    in
    let mem_arrays = Hashtbl.create 7 in
    List.iter
      (fun m ->
        Hashtbl.replace mem_arrays (Signal.memory_uid m)
          (Array.make (Signal.memory_size m)
             (Bits.zero (Signal.memory_width m))))
      (Circuit.memories circuit);
    let inputs =
      List.map
        (fun (n, s) -> (n, Hashtbl.find by_uid (Signal.uid s)))
        (Circuit.inputs circuit)
    in
    let output_refs =
      List.map
        (fun (n, s) -> (n, ref (Bits.zero (Signal.width s))))
        (Circuit.outputs circuit)
    in
    {
      circuit;
      nodes;
      by_uid;
      inputs;
      output_refs;
      mem_arrays;
      forces = Hashtbl.create 7;
      cycles = 0;
      settles = 0;
      node_evals = 0;
    }

  let circuit t = t.circuit

  let find_port kind ports name =
    match List.assoc_opt name ports with
    | Some p -> p
    | None ->
      invalid_arg (Printf.sprintf "Cyclesim: no %s port named %s" kind name)

  let in_port t name = (find_port "input" t.inputs name).value
  let out_port t name = find_port "output" t.output_refs name

  let input t name =
    let ns = find_port "input" t.inputs name in
    (ns.value, Signal.width ns.signal)

  let mem_array t memory = Hashtbl.find t.mem_arrays (Signal.memory_uid memory)

  let eval_node t ns =
    let v s = value t s in
    let result =
      match Signal.prim ns.signal with
      | Signal.Const b -> b
      | Signal.Input name ->
        let b = !(ns.value) in
        if Bits.width b <> Signal.width ns.signal then
          invalid_arg
            (Printf.sprintf
               "Cyclesim: input %s driven with width %d, expected %d" name
               (Bits.width b) (Signal.width ns.signal))
        else b
      | Signal.Op2 (op, a, b) -> (
        let a = v a and b = v b in
        match op with
        | Signal.Add -> Bits.add a b
        | Signal.Sub -> Bits.sub a b
        | Signal.Mul -> Bits.mul a b
        | Signal.And -> Bits.logand a b
        | Signal.Or -> Bits.logor a b
        | Signal.Xor -> Bits.logxor a b
        | Signal.Eq -> Bits.eq a b
        | Signal.Lt -> Bits.lt a b)
      | Signal.Not a -> Bits.lognot (v a)
      | Signal.Concat parts -> Bits.concat_msb (List.map v parts)
      | Signal.Select { src; high; low } -> Bits.select (v src) ~high ~low
      | Signal.Mux { select; cases } ->
        let idx = Signal.mux_index ~n_cases:(List.length cases) (v select) in
        v (List.nth cases idx)
      | Signal.Reg _ | Signal.Mem_read_sync _ -> ns.state
      | Signal.Mem_read_async { memory; addr } ->
        let arr = mem_array t memory in
        (match Bits.to_int_opt (v addr) with
        | Some a when a < Array.length arr -> arr.(a)
        | Some _ | None -> Bits.zero (Signal.memory_width memory))
      | Signal.Wire { driver = Some d } -> v d
      | Signal.Wire { driver = None } -> assert false
    in
    ns.value :=
      (match Hashtbl.find_opt t.forces (Signal.uid ns.signal) with
      | Some forced -> forced
      | None -> result)

  let settle_internal t =
    t.settles <- t.settles + 1;
    t.node_evals <- t.node_evals + Array.length t.nodes;
    Array.iter (fun ns -> eval_node t ns) t.nodes

  let refresh_outputs t =
    List.iter2
      (fun (_, s) (_, r) -> r := value t s)
      (Circuit.outputs t.circuit)
      t.output_refs

  let settle t =
    settle_internal t;
    refresh_outputs t

  let clock_edge t =
    let v s = value t s in
    (* Phase 1: sample next state for registers and sync reads using
       settled pre-edge values (sync reads see pre-edge memory
       contents: read-first semantics). *)
    Array.iter
      (fun ns ->
        match Signal.prim ns.signal with
        | Signal.Reg { d; enable; clear; clear_to; _ } ->
          let clear_active =
            match clear with Some c -> Bits.to_bool (v c) | None -> false
          in
          let enabled =
            match enable with Some e -> Bits.to_bool (v e) | None -> true
          in
          ns.next_state <-
            (if clear_active then clear_to
             else if enabled then v d
             else ns.state)
        | Signal.Mem_read_sync { memory; addr; enable } ->
          let enabled =
            match enable with Some e -> Bits.to_bool (v e) | None -> true
          in
          if enabled then begin
            let arr = mem_array t memory in
            ns.next_state <-
              (match Bits.to_int_opt (v addr) with
              | Some a when a < Array.length arr -> arr.(a)
              | Some _ | None -> Bits.zero (Signal.memory_width memory))
          end
          else ns.next_state <- ns.state
        | _ -> ())
      t.nodes;
    (* Phase 2: memory writes. *)
    List.iter
      (fun m ->
        let arr = mem_array t m in
        List.iter
          (fun (enable, addr, data) ->
            if Bits.to_bool (v enable) then
              match Bits.to_int_opt (v addr) with
              | Some a when a < Array.length arr -> arr.(a) <- v data
              | Some _ | None -> ())
          (Signal.memory_write_ports m))
      (Circuit.memories t.circuit);
    (* Phase 3: commit. *)
    Array.iter
      (fun ns ->
        match Signal.prim ns.signal with
        | Signal.Reg _ | Signal.Mem_read_sync _ -> ns.state <- ns.next_state
        | _ -> ())
      t.nodes

  let cycle t =
    settle_internal t;
    refresh_outputs t;
    clock_edge t;
    t.cycles <- t.cycles + 1

  let force t s b =
    let ns = node t s in
    if Bits.width b <> Signal.width ns.signal then
      invalid_arg
        (Printf.sprintf "Cyclesim.force: value width %d, signal width %d"
           (Bits.width b) (Signal.width ns.signal));
    Hashtbl.replace t.forces (Signal.uid ns.signal) b

  let release t s = Hashtbl.remove t.forces (Signal.uid (node t s).signal)
  let release_all t = Hashtbl.reset t.forces
  let forced t s = Hashtbl.find_opt t.forces (Signal.uid (node t s).signal)

  let is_stateful s =
    match Signal.prim s with
    | Signal.Reg _ | Signal.Mem_read_sync _ -> true
    | _ -> false

  let peek_state t s =
    let ns = node t s in
    if not (is_stateful ns.signal) then
      invalid_arg "Cyclesim.peek_state: signal holds no state";
    ns.state

  let poke_state t s b =
    let ns = node t s in
    if not (is_stateful ns.signal) then
      invalid_arg "Cyclesim.poke_state: signal holds no state";
    if Bits.width b <> Bits.width ns.state then
      invalid_arg "Cyclesim.poke_state: width mismatch";
    ns.state <- b

  let reset t =
    Hashtbl.reset t.forces;
    Array.iter
      (fun ns ->
        match Signal.prim ns.signal with
        | Signal.Reg { init; _ } ->
          ns.state <- init;
          ns.next_state <- init
        | Signal.Mem_read_sync { memory; _ } ->
          let z = Bits.zero (Signal.memory_width memory) in
          ns.state <- z;
          ns.next_state <- z
        | _ -> ())
      t.nodes;
    Hashtbl.iter
      (fun _ arr ->
        Array.fill arr 0 (Array.length arr) (Bits.zero (Bits.width arr.(0))))
      t.mem_arrays;
    (* Input ports back to zero, so a reused simulator starts from the
       same state a freshly created one would (input refs alias the
       input nodes' value refs). *)
    List.iter
      (fun (_, ns) -> ns.value := Bits.zero (Signal.width ns.signal))
      t.inputs;
    t.cycles <- 0;
    settle t

  let cycle_count t = t.cycles
  let peek t s = value t s
  let memory_contents t m = mem_array t m
end

type engine = Reference | Compiled

(* [Lane] is one lane of a batched simulator presented through the
   scalar API: campaign code written against [t] (monitors, fault
   injectors, stimulus drivers) runs unchanged against a lane. The one
   global operation is the clock — [cycle]/[settle]/[reset] on a lane
   view advance the WHOLE batch, so batch drivers must clock once per
   step for all lanes, not once per lane. *)
type t = Naive of Naive.t | Comp of Simcompile.t | Lane of Simbatch.t * int
type activity = {
  settles : int;
  node_evals : int;
  total_nodes : int;
  kind_evals : (string * int) list;
}

(* A compiled plan is the immutable, shareable half of a simulator:
   campaigns build one plan per circuit configuration and hand each
   worker domain its own cheap instance. The reference engine has no
   compile step to amortize, so its plan is just the elaborated
   circuit (still shared: elaboration itself is not repeated). *)
type plan = Naive_plan of Circuit.t | Comp_plan of Simcompile.plan

let plan ?(engine = Compiled) circuit =
  match engine with
  | Reference -> Naive_plan circuit
  | Compiled -> Comp_plan (Simcompile.plan circuit)

let of_plan = function
  | Naive_plan c -> Naive (Naive.create c)
  | Comp_plan p -> Comp (Simcompile.instantiate p)

let plan_engine = function
  | Naive_plan _ -> Reference
  | Comp_plan _ -> Compiled

let plan_circuit = function
  | Naive_plan c -> c
  | Comp_plan p -> Simcompile.plan_circuit p

let instantiate_batched ?lanes = function
  | Comp_plan p -> Simbatch.instantiate ?lanes p
  | Naive_plan _ ->
    invalid_arg "Cyclesim.instantiate_batched: only compiled plans can be batched"

let lane_view b lane =
  if lane < 0 || lane >= Simbatch.lanes b then
    invalid_arg
      (Printf.sprintf "Cyclesim.lane_view: lane %d out of range (0..%d)" lane
         (Simbatch.lanes b - 1));
  Lane (b, lane)

let create ?(engine = Compiled) circuit =
  match engine with
  | Reference -> Naive (Naive.create circuit)
  | Compiled -> Comp (Simcompile.compile circuit)

let engine = function Naive _ -> Reference | Comp _ | Lane _ -> Compiled

let circuit = function
  | Naive n -> Naive.circuit n
  | Comp c -> Simcompile.circuit c
  | Lane (b, _) -> Simbatch.circuit b

let in_port t name =
  match t with
  | Naive n -> Naive.in_port n name
  | Comp c -> Simcompile.in_port c name
  | Lane (b, lane) -> Simbatch.in_port b ~lane name

let out_port t name =
  match t with
  | Naive n -> Naive.out_port n name
  | Comp c -> Simcompile.out_port c name
  | Lane (b, lane) -> Simbatch.out_port b ~lane name

let bind_input t name ~width =
  let r, w =
    match t with
    | Naive n -> Naive.input n name
    | Comp c -> Simcompile.input c name
    | Lane (b, lane) -> Simbatch.input b ~lane name
  in
  if width <> w then
    invalid_arg
      (Printf.sprintf "Cyclesim.drive: port %s expects width %d, got %d" name w
         width);
  r

let drive t name b = bind_input t name ~width:(Bits.width b) := b

let cycle = function
  | Naive n -> Naive.cycle n
  | Comp c -> Simcompile.cycle c
  | Lane (b, _) -> Simbatch.cycle b

let settle = function
  | Naive n -> Naive.settle n
  | Comp c -> Simcompile.settle c
  | Lane (b, _) -> Simbatch.settle b

let reset = function
  | Naive n -> Naive.reset n
  | Comp c -> Simcompile.reset c
  | Lane (b, _) -> Simbatch.reset b

let force t s b =
  match t with
  | Naive n -> Naive.force n s b
  | Comp c -> Simcompile.force c s b
  | Lane (bt, lane) -> Simbatch.force bt ~lane s b

let release t s =
  match t with
  | Naive n -> Naive.release n s
  | Comp c -> Simcompile.release c s
  | Lane (b, lane) -> Simbatch.release b ~lane s

let release_all = function
  | Naive n -> Naive.release_all n
  | Comp c -> Simcompile.release_all c
  | Lane (b, lane) -> Simbatch.release_all b ~lane

let forced t s =
  match t with
  | Naive n -> Naive.forced n s
  | Comp c -> Simcompile.forced c s
  | Lane (b, lane) -> Simbatch.forced b ~lane s

let peek_state t s =
  match t with
  | Naive n -> Naive.peek_state n s
  | Comp c -> Simcompile.peek_state c s
  | Lane (b, lane) -> Simbatch.peek_state b ~lane s

let poke_state t s b =
  match t with
  | Naive n -> Naive.poke_state n s b
  | Comp c -> Simcompile.poke_state c s b
  | Lane (bt, lane) -> Simbatch.poke_state bt ~lane s b

let cycle_count = function
  | Naive n -> Naive.cycle_count n
  | Comp c -> Simcompile.cycle_count c
  | Lane (b, _) -> Simbatch.cycle_count b

let peek t s =
  match t with
  | Naive n -> Naive.peek n s
  | Comp c -> Simcompile.peek c s
  | Lane (b, lane) -> Simbatch.peek b ~lane s

let reader t s =
  match t with
  | Naive n ->
    let ns = Naive.node n s in
    fun dst -> Bits.blit ~src:!(ns.Naive.value) ~dst
  | Comp c -> Simcompile.reader c s
  | Lane (b, lane) -> Simbatch.reader b ~lane s

let memory_contents t m =
  match t with
  | Naive n -> Naive.memory_contents n m
  | Comp c -> Simcompile.memory_contents c m
  | Lane (b, lane) -> Simbatch.memory_contents b ~lane m

let named_kind_evals counts =
  List.filter
    (fun (_, n) -> n > 0)
    (Array.to_list (Array.mapi (fun k n -> (Signal.prim_kind_names.(k), n)) counts))

let activity = function
  | Naive n ->
    (* The naive engine evaluates every node on every settle, so the
       per-kind profile is just the per-kind node count scaled. *)
    let counts = Array.make Signal.n_prim_kinds 0 in
    Array.iter
      (fun ns ->
        let k = Signal.prim_kind ns.Naive.signal in
        counts.(k) <- counts.(k) + n.Naive.settles)
      n.Naive.nodes;
    {
      settles = n.Naive.settles;
      node_evals = n.Naive.node_evals;
      total_nodes = Array.length n.Naive.nodes;
      kind_evals = named_kind_evals counts;
    }
  | Comp c ->
    {
      settles = Simcompile.settles c;
      node_evals = Simcompile.node_evals c;
      total_nodes = Simcompile.total_nodes c;
      kind_evals = named_kind_evals (Simcompile.kind_evals c);
    }
  | Lane (b, _) ->
    (* Counters are global to the batch: one node evaluation covers
       every lane at once. *)
    {
      settles = Simbatch.settles b;
      node_evals = Simbatch.node_evals b;
      total_nodes = Simbatch.total_nodes b;
      kind_evals = named_kind_evals (Simbatch.kind_evals b);
    }
