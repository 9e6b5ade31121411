type op2 = Add | Sub | Mul | And | Or | Xor | Eq | Lt

type t = { uid : int; width : int; mutable names : string list; prim : prim }

and prim =
  | Const of Bits.t
  | Input of string
  | Op2 of op2 * t * t
  | Not of t
  | Concat of t list
  | Select of { src : t; high : int; low : int }
  | Mux of { select : t; cases : t list }
  | Reg of { d : t; enable : t option; clear : t option; clear_to : Bits.t; init : Bits.t }
  | Mem_read_async of { memory : memory; addr : t }
  | Mem_read_sync of { memory : memory; addr : t; enable : t option }
  | Wire of { mutable driver : t option }

and memory = {
  mem_uid : int;
  mem_size : int;
  mem_width : int;
  mem_name : string;
  mem_external : bool;
  mutable write_ports : write_port list;
}

and write_port = { wp_enable : t; wp_addr : t; wp_data : t }

(* Uids are minted from an [Atomic] counter so that circuits can be
   elaborated concurrently from several domains (sharded campaigns and
   sweeps build one fresh circuit per shard). A plain [ref] here lets
   two domains read-modify-write the same counter and mint duplicate
   uids, silently corrupting every uid-keyed table downstream (Cyclesim
   node maps, VCD identifier dedup, the Optimize memo). Uids stay
   monotonic within any single domain's elaboration, so structural
   orderings derived from them are unchanged. *)
let uid_counter = Atomic.make 0

let next_uid () = Atomic.fetch_and_add uid_counter 1 + 1

let make width prim = { uid = next_uid (); width; names = []; prim }

let uid t = t.uid
let width t = t.width
let prim t = t.prim
let names t = List.rev t.names

let ( -- ) t name =
  t.names <- name :: t.names;
  t

let const b = make (Bits.width b) (Const b)
let of_int ~width n = const (Bits.of_int ~width n)
let of_string s = const (Bits.of_string s)
let zero w = const (Bits.zero w)
let one w = const (Bits.one w)
let ones w = const (Bits.ones w)
let vdd = one 1
let gnd = zero 1

let input name w =
  if w < 1 then invalid_arg "Signal.input: width must be >= 1";
  make w (Input name)

let check_same_width name a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Signal.%s: width mismatch (%d vs %d)" name a.width b.width)

let op2 op name a b =
  check_same_width name a b;
  let w = match op with Eq | Lt -> 1 | _ -> a.width in
  make w (Op2 (op, a, b))

let ( +: ) a b = op2 Add "(+:)" a b
let ( -: ) a b = op2 Sub "(-:)" a b
let ( *: ) a b = op2 Mul "(*:)" a b
let ( &: ) a b = op2 And "(&:)" a b
let ( |: ) a b = op2 Or "(|:)" a b
let ( ^: ) a b = op2 Xor "(^:)" a b
let ( ==: ) a b = op2 Eq "(==:)" a b
let ( <: ) a b = op2 Lt "(<:)" a b
let ( ~: ) a = make a.width (Not a)
let ( <>: ) a b = ~:(a ==: b)
let ( >=: ) a b = ~:(a <: b)
let ( >: ) a b = b <: a
let ( <=: ) a b = ~:(b <: a)

let concat_msb parts =
  (match parts with
  | [] -> invalid_arg "Signal.concat_msb: empty list"
  | _ -> ());
  let w = List.fold_left (fun acc p -> acc + p.width) 0 parts in
  make w (Concat parts)

let select src ~high ~low =
  if low < 0 || high >= src.width || high < low then
    invalid_arg
      (Printf.sprintf "Signal.select: bad range [%d:%d] of width %d" high low
         src.width);
  if low = 0 && high = src.width - 1 then src
  else make (high - low + 1) (Select { src; high; low })

let bit t i = select t ~high:i ~low:i
let msb t = bit t (t.width - 1)
let lsb t = bit t 0
let repeat t n = concat_msb (List.init n (fun _ -> t))

let uresize t w =
  if w = t.width then t
  else if w < t.width then select t ~high:(w - 1) ~low:0
  else concat_msb [ zero (w - t.width); t ]

let sresize t w =
  if w = t.width then t
  else if w < t.width then select t ~high:(w - 1) ~low:0
  else concat_msb [ repeat (msb t) (w - t.width); t ]

let sll t n =
  if n < 0 then invalid_arg "Signal.sll: negative shift";
  if n = 0 then t
  else if n >= t.width then zero t.width
  else concat_msb [ select t ~high:(t.width - 1 - n) ~low:0; zero n ]

let srl t n =
  if n < 0 then invalid_arg "Signal.srl: negative shift";
  if n = 0 then t
  else if n >= t.width then zero t.width
  else concat_msb [ zero n; select t ~high:(t.width - 1) ~low:n ]

let mux select cases =
  (match cases with
  | [] -> invalid_arg "Signal.mux: no cases"
  | first :: rest ->
    List.iter (fun c -> check_same_width "mux" first c) rest);
  let max_cases = if select.width >= 30 then max_int else 1 lsl select.width in
  if List.length cases > max_cases then
    invalid_arg "Signal.mux: more cases than the select can address";
  make (List.hd cases).width (Mux { select; cases })

let mux2 cond t f =
  if cond.width <> 1 then invalid_arg "Signal.mux2: condition must be 1 bit";
  mux cond [ f; t ]

(* The single source of truth for mux out-of-range semantics: clamp to
   the last case. Every consumer (both simulation engines, the constant
   folder) must go through this helper; the HDL back-ends encode the
   same rule structurally by making the last case the unconditional
   default arm of the emitted selector. *)
(* Coarse node-kind classification for simulator activity statistics:
   both engines bucket their per-node evaluation counts by this code so
   profiles are comparable across engines. *)
let n_prim_kinds = 10

let prim_kind_names =
  [|
    "const"; "input"; "op2"; "not"; "concat"; "select"; "mux"; "reg";
    "mem_read"; "wire";
  |]

let prim_kind s =
  match prim s with
  | Const _ -> 0
  | Input _ -> 1
  | Op2 _ -> 2
  | Not _ -> 3
  | Concat _ -> 4
  | Select _ -> 5
  | Mux _ -> 6
  | Reg _ -> 7
  | Mem_read_async _ | Mem_read_sync _ -> 8
  | Wire _ -> 9

let mux_index ~n_cases select_value =
  let idx = Bits.to_index select_value ~bound:n_cases in
  if idx < 0 then n_cases - 1 else idx

let rec reduce_or t =
  if t.width = 1 then t
  else
    let mid = t.width / 2 in
    reduce_or (select t ~high:(t.width - 1) ~low:mid)
    |: reduce_or (select t ~high:(mid - 1) ~low:0)

let rec reduce_and t =
  if t.width = 1 then t
  else
    let mid = t.width / 2 in
    reduce_and (select t ~high:(t.width - 1) ~low:mid)
    &: reduce_and (select t ~high:(mid - 1) ~low:0)

let reg ?enable ?clear ?clear_to ?init d =
  let clear_to = match clear_to with Some b -> b | None -> Bits.zero d.width in
  let init = match init with Some b -> b | None -> Bits.zero d.width in
  if Bits.width clear_to <> d.width then invalid_arg "Signal.reg: clear_to width mismatch";
  if Bits.width init <> d.width then invalid_arg "Signal.reg: init width mismatch";
  (match enable with
  | Some e when e.width <> 1 -> invalid_arg "Signal.reg: enable must be 1 bit"
  | _ -> ());
  (match clear with
  | Some c when c.width <> 1 -> invalid_arg "Signal.reg: clear must be 1 bit"
  | _ -> ());
  make d.width (Reg { d; enable; clear; clear_to; init })

let wire w = make w (Wire { driver = None })

let ( <== ) target driver =
  match target.prim with
  | Wire r -> (
    match r.driver with
    | Some _ -> invalid_arg "Signal.(<==): wire already driven"
    | None ->
      check_same_width "(<==)" target driver;
      r.driver <- Some driver)
  | _ -> invalid_arg "Signal.(<==): target is not a wire"

let wire_driver t = match t.prim with Wire r -> r.driver | _ -> None

let reg_fb ?enable ?clear ?clear_to ?init ~width f =
  let q_wire = wire width in
  let q = reg ?enable ?clear ?clear_to ?init q_wire in
  q_wire <== f q;
  q

let create_memory ~size ~width ?name ?(external_ = false) () =
  if size < 1 then invalid_arg "Signal.create_memory: size must be >= 1";
  if width < 1 then invalid_arg "Signal.create_memory: width must be >= 1";
  let uid = next_uid () in
  let name = match name with Some n -> n | None -> Printf.sprintf "mem_%d" uid in
  {
    mem_uid = uid;
    mem_size = size;
    mem_width = width;
    mem_name = name;
    mem_external = external_;
    write_ports = [];
  }

let memory_size m = m.mem_size
let memory_width m = m.mem_width
let memory_name m = m.mem_name
let memory_uid m = m.mem_uid
let memory_is_external m = m.mem_external

let mem_write_port m ~enable ~addr ~data =
  if enable.width <> 1 then invalid_arg "Signal.mem_write_port: enable must be 1 bit";
  if data.width <> m.mem_width then
    invalid_arg "Signal.mem_write_port: data width mismatch";
  m.write_ports <-
    m.write_ports @ [ { wp_enable = enable; wp_addr = addr; wp_data = data } ]

let mem_read_async m ~addr = make m.mem_width (Mem_read_async { memory = m; addr })

let mem_read_sync m ?enable ~addr () =
  (match enable with
  | Some e when e.width <> 1 ->
    invalid_arg "Signal.mem_read_sync: enable must be 1 bit"
  | _ -> ());
  make m.mem_width (Mem_read_sync { memory = m; addr; enable })

let memory_write_ports m =
  List.map (fun wp -> (wp.wp_enable, wp.wp_addr, wp.wp_data)) m.write_ports

let opt_to_list = function Some s -> [ s ] | None -> []

let deps t =
  match t.prim with
  | Const _ | Input _ -> []
  | Op2 (_, a, b) -> [ a; b ]
  | Not a -> [ a ]
  | Concat parts -> parts
  | Select { src; _ } -> [ src ]
  | Mux { select; cases } -> select :: cases
  | Reg { d; enable; clear; _ } -> (d :: opt_to_list enable) @ opt_to_list clear
  | Mem_read_async { memory; addr } | Mem_read_sync { memory; addr; enable = None } ->
    addr
    :: List.concat_map
         (fun wp -> [ wp.wp_enable; wp.wp_addr; wp.wp_data ])
         memory.write_ports
  | Mem_read_sync { memory; addr; enable = Some e } ->
    addr :: e
    :: List.concat_map
         (fun wp -> [ wp.wp_enable; wp.wp_addr; wp.wp_data ])
         memory.write_ports
  | Wire { driver } -> opt_to_list driver

let is_const t = match t.prim with Const _ -> true | _ -> false
let const_value t = match t.prim with Const b -> Some b | _ -> None

let pp fmt t =
  let kind =
    match t.prim with
    | Const b -> Printf.sprintf "const %s" (Bits.to_string b)
    | Input n -> Printf.sprintf "input %s" n
    | Op2 (op, _, _) ->
      let s =
        match op with
        | Add -> "add" | Sub -> "sub" | Mul -> "mul" | And -> "and"
        | Or -> "or" | Xor -> "xor" | Eq -> "eq" | Lt -> "lt"
      in
      "op2 " ^ s
    | Not _ -> "not"
    | Concat _ -> "concat"
    | Select { high; low; _ } -> Printf.sprintf "select[%d:%d]" high low
    | Mux _ -> "mux"
    | Reg _ -> "reg"
    | Mem_read_async _ -> "mem_read_async"
    | Mem_read_sync _ -> "mem_read_sync"
    | Wire _ -> "wire"
  in
  let names = match names t with [] -> "" | ns -> " (" ^ String.concat "," ns ^ ")" in
  Format.fprintf fmt "#%d:%d %s%s" t.uid t.width kind names
