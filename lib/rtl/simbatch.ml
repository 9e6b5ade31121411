(* Batched (bit-parallel) compiled simulation engine.

   The classic parallel-pattern fault-simulation trick: up to 64
   independent instances of one circuit are packed into the bit-lanes
   of each machine word and evaluated together. A width-[w] signal's
   batched value is a [Bits.t] of width [w * 64] laid out *transposed*:
   limb [b] is the bit-plane of bit [b] across all lanes — bit [l] of
   limb [b] is bit [b] of lane [l]'s value. Because [w * 64] is always
   a multiple of 64 there are exactly [w] limbs and every plane is one
   whole limb, so:

   - the bitwise kernels (And/Or/Xor/Not) are *lane-oblivious*: the
     scalar [Bits.*_into] ops applied to the batched vectors evaluate
     all 64 lanes at once;
   - Select and Concat stay lane-oblivious too, since plane boundaries
     are limb boundaries: [select ~high:(64h+63) ~low:(64l)] moves
     whole planes, and concatenation of plane stacks is a plane stack;
   - arithmetic and comparisons become *plane-serial*: a ripple adder
     over planes with a 64-lane carry word (sum = a xor b xor c,
     carry = a&b | c&(a xor b)), Eq as the NOR of difference planes,
     Lt as an LSB-to-MSB unsigned compare recurrence;
   - Mux select becomes per-case lane-equality masks (a lane matches
     case [c] iff every select plane agrees with the bits of [c]); the
     final case doubles as the out-of-range default arm, which matches
     {!Signal.mux_index}'s clamp semantics exactly;
   - register edges blend per-plane with per-lane clear/enable masks
     (the lane-wise OR of the control planes — the batched analogue of
     [Bits.to_bool]);
   - multiplies and memory ports are genuinely per-lane: values are
     extracted from / packed back into their lane one at a time, and
     each lane owns its own memory array so fault injection via
     [memory_contents ~lane] stays lane-isolated.

   Everything else — the plan, the levelized schedule, the dirty-flag
   settle sweep, publish-on-change, the three clock-edge phases — is
   shared with {!Simcompile} structurally; the plan descriptor arrays
   are literally the same values, used read-only. Lanes beyond
   [lanes] (when fewer than 64 are requested) hold deterministic
   zero-derived garbage that no per-lane accessor ever reads; kernels
   are pure bitwise functions per lane, so garbage lanes can never
   perturb real ones. *)

let lane_bits = 64

(* Batched width of a scalar width. *)
let bw w = w * lane_bits

(* Plane (limb) access on the raw storage of a [Bits.t]
   ([Bits.unsafe_data]) through the compiler's load/store primitives,
   inlined here so that no plane value is boxed.  A call into [Bits]
   per limb would box every int64 it returns; the offset is
   [Bits.limb_offset p], spelled out because the engine's innermost
   loops should not pay a call per limb for it. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] pget d p = get64 d ((p + 1) lsl 3)
let[@inline] pset d p v = set64 d ((p + 1) lsl 3) v
let[@inline] planes d = (Bytes.length d lsr 3) - 1

(* Compare-and-set of one plane, reporting whether it moved.  The hot
   kernels compute straight into the node's published buffer with this —
   one pass, no scratch copy, no separate compare sweep.  Batch buffers
   are whole limbs (width = w * 64), so raw stores never need the
   top-limb masking of a general [Bits.set_limb]. *)
let[@inline] store d p v =
  if v <> pget d p then begin
    pset d p v;
    true
  end
  else false

(* Replicate a scalar value into every lane: plane [b] is all-ones iff
   bit [b] is set. *)
let broadcast scalar =
  let w = Bits.width scalar in
  let r = Bits.zero (bw w) in
  let rd = Bits.unsafe_data r in
  for b = 0 to w - 1 do
    if Bits.bit scalar b then pset rd b (-1L)
  done;
  r

(* Overwrite lane [lane] of [dst] with a scalar value (all [w] bits of
   the lane are written, set or cleared); whether any plane moved. *)
let pack_lane ~dst ~lane scalar =
  let m = Int64.shift_left 1L lane in
  let nm = Int64.lognot m in
  let dd = Bits.unsafe_data dst in
  let sd = Bits.unsafe_data scalar in
  let moved = ref false in
  for b = 0 to Bits.width scalar - 1 do
    let v =
      Int64.logand (Int64.shift_right_logical (pget sd (b lsr 6)) (b land 63)) 1L
    in
    let p = pget dd b in
    let p' = if v = 1L then Int64.logor p m else Int64.logand p nm in
    if p' <> p then begin
      pset dd b p';
      moved := true
    end
  done;
  !moved

(* Lane [lane] of a batched value into the scalar [dst], all of whose
   bits are written (so it stays normalized). *)
let extract_lane_into ~dst src ~lane =
  let sd = Bits.unsafe_data src and rd = Bits.unsafe_data dst in
  let w = Bits.width dst in
  for k = 0 to planes rd - 1 do
    let acc = ref 0L in
    for b = k * 64 to min w ((k + 1) * 64) - 1 do
      acc :=
        Int64.logor !acc
          (Int64.shift_left
             (Int64.logand (Int64.shift_right_logical (pget sd b) lane) 1L)
             (b land 63))
    done;
    pset rd k !acc
  done

(* Lane [lane] of a batched value as a fresh scalar of width [w]. *)
let extract_lane src ~lane w =
  let r = Bits.zero w in
  extract_lane_into ~dst:r src ~lane;
  r

(* Lane [lane] of the batched address [ad] as an index below [bound], or
   -1 — [Bits.to_index] of the extracted lane, without extracting it. *)
let lane_index ad ~lane ~bound =
  let a = ref 0 in
  for b = 0 to planes ad - 1 do
    if Int64.logand (Int64.shift_right_logical (pget ad b) lane) 1L <> 0L then
      a := if b < 62 && !a >= 0 then !a lor (1 lsl b) else -1
  done;
  if !a < bound then !a else -1

(* Per-lane truthiness mask: bit [l] set iff lane [l] has any bit set —
   the batched analogue of [Bits.to_bool], used for enables/clears. *)
let[@inline] lane_or batched =
  let d = Bits.unsafe_data batched in
  let acc = ref 0L in
  for b = 0 to planes d - 1 do
    acc := Int64.logor !acc (pget d b)
  done;
  !acc

let lane_bit m l = Int64.logand (Int64.shift_right_logical m l) 1L = 1L

type input = {
  in_name : string;
  in_index : int;
  in_refs : Bits.t ref array; (* one scalar ref per lane *)
  in_packed : Bits.t; (* the transposed batch the eval publishes *)
  in_last : Bits.t array;
      (* The physical [Bits.t] last packed from each lane's ref.  The
         settle sweep skips repacking a lane whose ref still holds the
         same value object — so driving a lane means *assigning* its
         ref (as [Cyclesim.drive] does); batched stimulus that writes
         planes directly (see {!write_input_plane}) is then never
         clobbered by the sweep. *)
  mutable in_dirty : bool;
      (* [in_packed] may have moved since the last settle (a plane
         write or a lane repack): the settle must re-compare it with
         the published buffer.  A quiet input costs one flag test. *)
}

type t = {
  plan : Simcompile.plan;
  lanes : int;
  signals : Signal.t array; (* shared with the plan, immutable *)
  bufs : Bits.t array; (* batched published values *)
  evals : (unit -> unit) array;
  fanout : int array array; (* shared with the plan, immutable *)
  dirty : bool array;
  mutable ndirty : int;
  force_mask : int64 array; (* per-node mask of forced lanes *)
  force_vals : Bits.t option array; (* batched forced values *)
  state : Bits.t option array; (* batched; Reg / Mem_read_sync only *)
  next_state : Bits.t option array;
  mem_arrays : (int, Bits.t array array) Hashtbl.t; (* uid -> lane -> addr *)
  mem_gens : (int, int ref) Hashtbl.t;
      (* Per-memory write generation, bumped whenever any lane's
         contents change (write port or [memory_contents] escape) —
         lets the sync-read kernels memoise like the register ones. *)
  inputs : input array;
  output_refs : (string * int * Bits.t ref array) array; (* scalar per lane *)
  out_scratch : Bits.t array; (* per output: a lane's value, extracted *)
  buf_gen : int array; (* bumped whenever bufs.(i) changes *)
  out_gen : int array; (* buf_gen at last refresh, per output *)
  mutable out_refs_used : bool;
      (* Whether [out_port] has ever handed out a per-lane ref.  Until
         it has, settles skip the per-lane output extraction entirely —
         plane-level harnesses read outputs through {!published_data} and
         never pay for refs nobody holds.  The flag is sticky: once a
         ref escapes, every settle refreshes it (callers may hold refs
         across cycles, like the scalar engine's). *)
  mutable in_refs_used : bool;
      (* Same idea on the input side: until [in_port] hands out a ref,
         no per-lane driver exists, so the settle sweep skips the
         per-lane repack scan and trusts [write_input_plane]'s dirty
         flags alone. *)
  mutable edge1 : (unit -> unit) array;
  mutable writes : (unit -> unit) array;
  mutable commits : (unit -> unit) array;
  mutable cycles : int;
  mutable settles : int;
  mutable node_evals : int;
  kinds : int array; (* shared with the plan, immutable *)
  kind_evals : int array;
  poked : bool array;
      (* Per-node "state was mutated behind the engine's back" flag
         ([poke_state], [reset]): invalidates the edge kernels'
         generation memo so the next edge recomputes from scratch. *)
  moved : Bytes.t;
      (* One 64-lane word: the lanes whose register or sync-read state,
         memory words, driven input planes or forces moved since the
         last [cycle] ended.  Kept in bytes so that the per-commit
         update stores an unboxed word. *)
  changed : Bytes.t; (* [moved] as it stood when the last [cycle] ended *)
}

(* Record that the lanes in [m] moved. *)
let[@inline] note_moved t m =
  set64 t.moved 0 (Int64.logor (get64 t.moved 0) m)

(* A clock-edge commit: copy every plane of [src] into [dst], noting
   the lanes whose value moved; whether any did. *)
let commit_planes t ~src ~dst =
  let moved = ref 0L in
  for p = 0 to planes dst - 1 do
    let v = pget src p in
    let d = Int64.logxor v (pget dst p) in
    if d <> 0L then begin
      pset dst p v;
      moved := Int64.logor !moved d
    end
  done;
  if !moved <> 0L then begin
    note_moved t !moved;
    true
  end
  else false

let mark t j =
  if not t.dirty.(j) then begin
    t.dirty.(j) <- true;
    t.ndirty <- t.ndirty + 1
  end

(* Value of node [i] changed: bump its generation and dirty its fanout. *)
let touched t i =
  t.buf_gen.(i) <- t.buf_gen.(i) + 1;
  let fo = t.fanout.(i) in
  for k = 0 to Array.length fo - 1 do
    mark t fo.(k)
  done

let publish t i v =
  if Bits.blit_changed ~src:v ~dst:t.bufs.(i) then touched t i

(* Blend forced lanes into the just-published value of node [j]:
   plane' = (plane & ~mask) | (forced_plane & mask). Runs after the
   node's own eval, so unforced lanes keep their computed value. *)
let apply_force t j m =
  match t.force_vals.(j) with
  | None -> ()
  | Some fv ->
    let bd = Bits.unsafe_data t.bufs.(j) and fd = Bits.unsafe_data fv in
    let nm = Int64.lognot m in
    let changed = ref false in
    for b = 0 to planes bd - 1 do
      let nv = Int64.logor (Int64.logand (pget bd b) nm) (Int64.logand (pget fd b) m) in
      if store bd b nv then changed := true
    done;
    if !changed then begin
      t.buf_gen.(j) <- t.buf_gen.(j) + 1;
      let fo = t.fanout.(j) in
      for k = 0 to Array.length fo - 1 do
        mark t fo.(k)
      done
    end

let instantiate ?(lanes = lane_bits) plan =
  if lanes < 1 || lanes > lane_bits then
    invalid_arg (Printf.sprintf "Simbatch: lanes must be in 1..%d" lane_bits);
  let n = Simcompile.plan_n plan in
  let width_of i = Signal.width (Simcompile.plan_signal plan i) in
  let bufs = Array.map broadcast (Simcompile.plan_buf_init plan) in
  let state = Array.map (Option.map broadcast) (Simcompile.plan_state_init plan) in
  let next_state =
    Array.map (Option.map broadcast) (Simcompile.plan_state_init plan)
  in
  let mem_arrays = Hashtbl.create 7 in
  let mem_gens = Hashtbl.create 7 in
  Array.iter
    (fun { Simcompile.m_uid; m_size; m_zero; _ } ->
      Hashtbl.replace mem_arrays m_uid
        (Array.init lanes (fun _ -> Array.make m_size m_zero));
      Hashtbl.replace mem_gens m_uid (ref 0))
    (Simcompile.plan_mems plan);
  let mem_gen_of uid = Hashtbl.find mem_gens uid in
  let inputs =
    Array.map
      (fun (name, i) ->
        let w = width_of i in
        {
          in_name = name;
          in_index = i;
          in_refs = Array.init lanes (fun _ -> ref (Bits.zero w));
          in_packed = Bits.zero (bw w);
          (* Fresh objects, physically distinct from the refs' initial
             contents, so the first settle packs every lane. *)
          in_last = Array.init lanes (fun _ -> Bits.zero w);
          in_dirty = true;
        })
      (Simcompile.plan_inputs plan)
  in
  let output_refs =
    Array.of_list
      (List.map
         (fun (name, i) ->
           (name, i, Array.init lanes (fun _ -> ref (Bits.zero (width_of i)))))
         (Simcompile.plan_outputs plan))
  in
  let out_scratch =
    Array.map (fun (_, i, _) -> Bits.zero (width_of i)) output_refs
  in
  let t =
    {
      plan;
      lanes;
      signals = Array.init n (Simcompile.plan_signal plan);
      bufs;
      evals = Array.make n (fun () -> ());
      fanout = Simcompile.plan_fanout plan;
      dirty = Array.make n true;
      ndirty = n;
      force_mask = Array.make n 0L;
      force_vals = Array.make n None;
      state;
      next_state;
      mem_arrays;
      mem_gens;
      inputs;
      output_refs;
      out_scratch;
      buf_gen = Array.make n 0;
      out_gen = Array.make (Array.length output_refs) (-1);
      out_refs_used = false;
      in_refs_used = false;
      edge1 = [||];
      writes = [||];
      commits = [||];
      cycles = 0;
      settles = 0;
      node_evals = 0;
      kinds = Simcompile.plan_kinds plan;
      kind_evals = Array.make Signal.n_prim_kinds 0;
      poked = Array.make n true;
      moved = Bytes.make 8 '\255';
      changed = Bytes.make 8 '\255';
    }
  in
  Array.iteri
    (fun i op ->
      let eval =
        match op with
        | Simcompile.O_const -> fun () -> ()
        | Simcompile.O_input k ->
          let p = inputs.(k).in_packed in
          fun () -> publish t i p
        | Simcompile.O_op2 (op, a, b) ->
          let a = bufs.(a) and b = bufs.(b) in
          let w = width_of i in
          (* The word-parallel kernels write straight into the node's
             published buffer, fusing compute / compare / publish into
             one pass per plane over the raw limb arrays. Only Mul
             still goes through a scratch buffer (it is per-lane
             anyway). *)
          let ad = Bits.unsafe_data a and bd = Bits.unsafe_data b in
          let dd = Bits.unsafe_data bufs.(i) in
          (match op with
          | Signal.And ->
            fun () ->
              let changed = ref false in
              for p = 0 to w - 1 do
                if store dd p (Int64.logand (pget ad p) (pget bd p)) then
                  changed := true
              done;
              if !changed then touched t i
          | Signal.Or ->
            fun () ->
              let changed = ref false in
              for p = 0 to w - 1 do
                if store dd p (Int64.logor (pget ad p) (pget bd p)) then
                  changed := true
              done;
              if !changed then touched t i
          | Signal.Xor ->
            fun () ->
              let changed = ref false in
              for p = 0 to w - 1 do
                if store dd p (Int64.logxor (pget ad p) (pget bd p)) then
                  changed := true
              done;
              if !changed then touched t i
          | Signal.Add ->
            fun () ->
              let changed = ref false in
              let carry = ref 0L in
              for p = 0 to w - 1 do
                let x = pget ad p and y = pget bd p in
                let axy = Int64.logxor x y in
                if store dd p (Int64.logxor axy !carry) then changed := true;
                carry :=
                  Int64.logor (Int64.logand x y) (Int64.logand !carry axy)
              done;
              if !changed then touched t i
          | Signal.Sub ->
            (* a - b = a + ~b + 1, plane-wise with carry-in all-ones. *)
            fun () ->
              let changed = ref false in
              let carry = ref (-1L) in
              for p = 0 to w - 1 do
                let x = pget ad p and y = Int64.lognot (pget bd p) in
                let axy = Int64.logxor x y in
                if store dd p (Int64.logxor axy !carry) then changed := true;
                carry :=
                  Int64.logor (Int64.logand x y) (Int64.logand !carry axy)
              done;
              if !changed then touched t i
          | Signal.Eq ->
            let aw = planes ad in
            fun () ->
              let diff = ref 0L in
              for p = 0 to aw - 1 do
                diff := Int64.logor !diff (Int64.logxor (pget ad p) (pget bd p))
              done;
              if store dd 0 (Int64.lognot !diff) then touched t i
          | Signal.Lt ->
            (* Unsigned compare, LSB to MSB:
               lt' = (~a & b) | (a xnor b) & lt. *)
            let aw = planes ad in
            fun () ->
              let lt = ref 0L in
              for p = 0 to aw - 1 do
                let x = pget ad p and y = pget bd p in
                let same = Int64.lognot (Int64.logxor x y) in
                lt :=
                  Int64.logor
                    (Int64.logand (Int64.lognot x) y)
                    (Int64.logand same !lt)
              done;
              if store dd 0 !lt then touched t i
          | Signal.Mul ->
            let aw = planes ad in
            let scratch = Bits.zero (bw w) in
            let av = Bits.zero aw and bv = Bits.zero aw and pv = Bits.zero aw in
            fun () ->
              for l = 0 to lanes - 1 do
                extract_lane_into ~dst:av a ~lane:l;
                extract_lane_into ~dst:bv b ~lane:l;
                Bits.mul_into ~dst:pv av bv;
                ignore (pack_lane ~dst:scratch ~lane:l pv)
              done;
              publish t i scratch)
        | Simcompile.O_not a ->
          let ad = Bits.unsafe_data bufs.(a) in
          let w = width_of i in
          let dd = Bits.unsafe_data bufs.(i) in
          fun () ->
            let changed = ref false in
            for p = 0 to w - 1 do
              if store dd p (Int64.lognot (pget ad p)) then changed := true
            done;
            if !changed then touched t i
        | Simcompile.O_concat parts ->
          let parts = Array.map (fun j -> bufs.(j)) parts in
          let dst = Bits.zero (bw (width_of i)) in
          fun () ->
            Bits.concat_msb_into ~dst parts;
            publish t i dst
        | Simcompile.O_select { src; high; low } ->
          let src = bufs.(src) in
          let dst = Bits.zero (bw (width_of i)) in
          let high = (high * lane_bits) + lane_bits - 1
          and low = low * lane_bits in
          fun () ->
            Bits.select_into ~dst src ~high ~low;
            publish t i dst
        | Simcompile.O_mux { select; cases } ->
          let sel = bufs.(select) in
          let cases = Array.map (fun j -> bufs.(j)) cases in
          let n_cases = Array.length cases in
          let w = width_of i in
          if n_cases = 1 then (fun () -> publish t i cases.(0))
          else begin
            let dd = Bits.unsafe_data bufs.(i) in
            let seld = Bits.unsafe_data sel in
            let sw = planes seld in
            let cased = Array.map Bits.unsafe_data cases in
            let masks = Bits.unsafe_data (Bits.zero (bw (n_cases - 1))) in
            fun () ->
              (* A lane matches case [c] iff every select plane agrees
                 with the corresponding bit of [c]; lanes matching no
                 case (out-of-range or too-wide selects) fall through
                 to the last case, like Signal.mux_index. *)
              let any = ref 0L in
              for c = 0 to n_cases - 2 do
                let m = ref (-1L) in
                for b = 0 to sw - 1 do
                  let p = pget seld b in
                  let want = b < 62 && (c lsr b) land 1 = 1 in
                  m := Int64.logand !m (if want then p else Int64.lognot p)
                done;
                pset masks c !m;
                any := Int64.logor !any !m
              done;
              let last_mask = Int64.lognot !any in
              let last = cased.(n_cases - 1) in
              let changed = ref false in
              for b = 0 to w - 1 do
                let acc = ref (Int64.logand last_mask (pget last b)) in
                for c = 0 to n_cases - 2 do
                  acc :=
                    Int64.logor !acc
                      (Int64.logand (pget masks c)
                         (pget (Array.unsafe_get cased c) b))
                done;
                if store dd b !acc then changed := true
              done;
              if !changed then touched t i
          end
        | Simcompile.O_state ->
          let st = Option.get state.(i) in
          fun () -> publish t i st
        | Simcompile.O_mem_read_async { mem_uid; mem_width; addr } ->
          let arrs = Hashtbl.find mem_arrays mem_uid in
          let ad = Bits.unsafe_data bufs.(addr) in
          let dd = Bits.unsafe_data bufs.(i) in
          (* The lanes' words are gathered plane by plane into [acc],
             then published with one compare-and-set per plane. *)
          let acc = Bits.unsafe_data (Bits.zero (bw mem_width)) in
          let bound = Array.length arrs.(0) in
          let all =
            if lanes = lane_bits then -1L
            else Int64.pred (Int64.shift_left 1L lanes)
          in
          fun () ->
            for b = 0 to mem_width - 1 do
              pset acc b 0L
            done;
            (* Lanes usually agree on the address: find those that hold
               lane 0's, and decode the address per lane only for the
               rest. *)
            let a0 = lane_index ad ~lane:0 ~bound in
            let same = ref all in
            for b = 0 to planes ad - 1 do
              let p = pget ad b in
              same :=
                Int64.logand !same
                  (if Int64.logand p 1L <> 0L then p else Int64.lognot p)
            done;
            for l = 0 to lanes - 1 do
              let a =
                if lane_bit !same l then a0 else lane_index ad ~lane:l ~bound
              in
              if a >= 0 then begin
                let vd = Bits.unsafe_data arrs.(l).(a) in
                let m = Int64.shift_left 1L l in
                for b = 0 to mem_width - 1 do
                  if
                    Int64.logand
                      (Int64.shift_right_logical (pget vd (b lsr 6)) (b land 63))
                      1L
                    <> 0L
                  then pset acc b (Int64.logor (pget acc b) m)
                done
              end
            done;
            let changed = ref false in
            for b = 0 to mem_width - 1 do
              if store dd b (pget acc b) then changed := true
            done;
            if !changed then touched t i
        | Simcompile.O_wire d ->
          let d = bufs.(d) in
          fun () -> publish t i d
      in
      t.evals.(i) <- eval)
    (Simcompile.plan_ops plan);
  let edge1 = ref [] in
  let commits = ref [] in
  Array.iter
    (function
      | Simcompile.E_reg { index = i; d; enable; clear; clear_to } ->
        let st = Option.get state.(i) and nx = Option.get next_state.(i) in
        let d_idx = d and en_idx = enable and cl_idx = clear in
        let dd = Bits.unsafe_data bufs.(d) in
        let enable = Option.map (fun j -> bufs.(j)) enable in
        let clear = Option.map (fun j -> bufs.(j)) clear in
        let ctd = Bits.unsafe_data (broadcast clear_to) in
        let std = Bits.unsafe_data st and nxd = Bits.unsafe_data nx in
        let w = planes std in
        (* Generation memo: with d / enable / clear unchanged since the
           last recompute and the previous commit a no-op, the register
           is at a fixpoint (enabled lanes already hold d, cleared
           lanes hold clear_to, the rest hold themselves) — the whole
           sample/commit pair collapses to three int compares. *)
        let gd = ref (-1) and ge = ref (-1) and gc = ref (-1) in
        let stable = ref false in
        let ran = ref false in
        let sample () =
          let cgd = t.buf_gen.(d_idx)
          and cge = (match en_idx with Some j -> t.buf_gen.(j) | None -> 0)
          and cgc = (match cl_idx with Some j -> t.buf_gen.(j) | None -> 0) in
          if
            (not !stable) || t.poked.(i) || cgd <> !gd || cge <> !ge
            || cgc <> !gc
          then begin
            t.poked.(i) <- false;
            gd := cgd;
            ge := cge;
            gc := cgc;
            let cm = match clear with Some c -> lane_or c | None -> 0L in
            let em = match enable with Some e -> lane_or e | None -> -1L in
            let ncm = Int64.lognot cm and nem = Int64.lognot em in
            for b = 0 to w - 1 do
              pset nxd b
                (Int64.logor
                   (Int64.logand cm (pget ctd b))
                   (Int64.logand ncm
                      (Int64.logor
                         (Int64.logand em (pget dd b))
                         (Int64.logand nem (pget std b)))))
            done;
            ran := true
          end
        in
        let commit () =
          if !ran then begin
            ran := false;
            if commit_planes t ~src:nxd ~dst:std then begin
              mark t i;
              (* nx reads st: recompute next edge from the new state. *)
              stable := false
            end
            else stable := true
          end
        in
        edge1 := sample :: !edge1;
        commits := commit :: !commits
      | Simcompile.E_sync_read { index = i; mem_uid; mem_width; addr; enable } ->
        let st = Option.get state.(i) and nx = Option.get next_state.(i) in
        let std = Bits.unsafe_data st and nxd = Bits.unsafe_data nx in
        let arrs = Hashtbl.find mem_arrays mem_uid in
        let addr_idx = addr and en_idx = enable in
        let ad = Bits.unsafe_data bufs.(addr) in
        let enable = Option.map (fun j -> bufs.(j)) enable in
        let z = Bits.zero mem_width in
        let mem_gen = mem_gen_of mem_uid in
        let ga = ref (-1) and ge = ref (-1) and gm = ref (-1) in
        let stable = ref false in
        let ran = ref false in
        let sample () =
          let cga = t.buf_gen.(addr_idx)
          and cge = (match en_idx with Some j -> t.buf_gen.(j) | None -> 0)
          and cgm = !mem_gen in
          if
            (not !stable) || t.poked.(i) || cga <> !ga || cge <> !ge
            || cgm <> !gm
          then begin
            t.poked.(i) <- false;
            ga := cga;
            ge := cge;
            gm := cgm;
            Bits.blit ~src:st ~dst:nx;
            let em = match enable with Some e -> lane_or e | None -> -1L in
            for l = 0 to lanes - 1 do
              if lane_bit em l then begin
                let a = lane_index ad ~lane:l ~bound:(Array.length arrs.(l)) in
                ignore
                  (pack_lane ~dst:nx ~lane:l (if a < 0 then z else arrs.(l).(a)))
              end
            done;
            ran := true
          end
        in
        let commit () =
          if !ran then begin
            ran := false;
            if commit_planes t ~src:nxd ~dst:std then begin
              mark t i;
              stable := false
            end
            else stable := true
          end
        in
        edge1 := sample :: !edge1;
        commits := commit :: !commits)
    (Simcompile.plan_edges plan);
  let writes = ref [] in
  Array.iter
    (fun { Simcompile.wp_mem_uid; wp_enable; wp_addr; wp_data } ->
      let arrs = Hashtbl.find mem_arrays wp_mem_uid in
      let gen = mem_gen_of wp_mem_uid in
      let readers = Simcompile.plan_mem_readers plan wp_mem_uid in
      let enable = bufs.(wp_enable)
      and addr = bufs.(wp_addr)
      and data = bufs.(wp_data) in
      let w = Bits.limb_count data in
      let ad = Bits.unsafe_data addr and dv = Bits.zero w in
      (* Stored words are immutable (a write replaces the slot, as the
         shared zero every slot starts from requires), so words are
         interned: one value per bit pattern, shared by every lane and
         address, instead of a fresh copy per written slot that stays
         live until the batch is dropped.  Only while the table (one
         entry per pattern) is no larger than the slots it serves —
         [lanes * size] — as for the video designs' 8- and 9-bit
         (parity) pixel memories; wider words are copied.  The table
         is made at the first write, not at instantiation. *)
      let intern = w < 30 && 1 lsl w <= lanes * Array.length arrs.(0) in
      let interned = ref [||] in
      let stored v =
        if not intern then Bits.copy v
        else begin
          if Array.length !interned = 0 then
            interned := Array.make (1 lsl w) None;
          let k = Bits.to_int v in
          match !interned.(k) with
          | Some b -> b
          | None ->
            let b = Bits.copy v in
            !interned.(k) <- Some b;
            b
        end
      in
      let write () =
        let em = lane_or enable in
        if not (Int64.equal em 0L) then begin
          let moved = ref 0L in
          for l = 0 to lanes - 1 do
            if lane_bit em l then begin
              let a = lane_index ad ~lane:l ~bound:(Array.length arrs.(l)) in
              if a >= 0 then begin
                extract_lane_into ~dst:dv data ~lane:l;
                if not (Bits.equal arrs.(l).(a) dv) then begin
                  arrs.(l).(a) <- stored dv;
                  moved := Int64.logor !moved (Int64.shift_left 1L l)
                end
              end
            end
          done;
          if !moved <> 0L then begin
            note_moved t !moved;
            incr gen;
            Array.iter (fun j -> mark t j) readers
          end
        end
      in
      writes := write :: !writes)
    (Simcompile.plan_write_ports plan);
  t.edge1 <- Array.of_list (List.rev !edge1);
  t.writes <- Array.of_list (List.rev !writes);
  t.commits <- Array.of_list (List.rev !commits);
  t

let lanes t = t.lanes
let plan t = t.plan
let circuit t = Simcompile.plan_circuit t.plan

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg (Printf.sprintf "Simbatch: lane %d out of range (0..%d)" lane (t.lanes - 1))

let index t s =
  match Simcompile.plan_index_of_uid t.plan s with
  | Some i -> i
  | None -> invalid_arg "Cyclesim: signal not part of this circuit"

let input_index t name =
  let rec go k =
    if k >= Array.length t.inputs then
      invalid_arg (Printf.sprintf "Cyclesim: no input port named %s" name)
    else if String.equal t.inputs.(k).in_name name then k
    else go (k + 1)
  in
  go 0

let input t ~lane name =
  check_lane t lane;
  let inp = t.inputs.(input_index t name) in
  (* A ref is escaping: from now on every settle must scan the lanes
     for re-assigned refs (see [in_refs_used]). *)
  t.in_refs_used <- true;
  (inp.in_refs.(lane), Signal.width t.signals.(inp.in_index))

let in_port t ~lane name = fst (input t ~lane name)

let settle_comb t =
  t.settles <- t.settles + 1;
  for k = 0 to Array.length t.inputs - 1 do
    let inp = t.inputs.(k) in
    if t.in_refs_used then begin
      let w = Signal.width t.signals.(inp.in_index) in
      for l = 0 to t.lanes - 1 do
        let b = !(inp.in_refs.(l)) in
        if b != inp.in_last.(l) then begin
          if Bits.width b <> w then
            invalid_arg
              (Printf.sprintf
                 "Cyclesim: input %s driven with width %d, expected %d"
                 inp.in_name (Bits.width b) w);
          if pack_lane ~dst:inp.in_packed ~lane:l b then
            note_moved t (Int64.shift_left 1L l);
          inp.in_last.(l) <- b;
          inp.in_dirty <- true
        end
      done
    end;
    if inp.in_dirty then begin
      inp.in_dirty <- false;
      if not (Bits.equal inp.in_packed t.bufs.(inp.in_index)) then
        mark t inp.in_index
    end
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
      t.evals.(j) ();
      let m = t.force_mask.(j) in
      if not (Int64.equal m 0L) then apply_force t j m
    end;
    incr i
  done

let refresh_outputs t =
  if t.out_refs_used then
    Array.iteri
      (fun k (_, i, refs) ->
        (* Output values only move when the node's buffer does; the
           generation stamp lets a settle with quiet outputs skip the
           per-lane extraction entirely. *)
        let g = t.buf_gen.(i) in
        if g <> t.out_gen.(k) then begin
          t.out_gen.(k) <- g;
          let v = t.out_scratch.(k) in
          for l = 0 to t.lanes - 1 do
            extract_lane_into ~dst:v t.bufs.(i) ~lane:l;
            if not (Bits.equal !(refs.(l)) v) then refs.(l) := Bits.copy v
          done
        end)
      t.output_refs

let out_port t ~lane name =
  check_lane t lane;
  if not t.out_refs_used then begin
    (* First ref handed out: bring every ref up to date now (the
       buffers are settled), then keep them fresh on every settle. *)
    t.out_refs_used <- true;
    refresh_outputs t
  end;
  let rec go k =
    if k >= Array.length t.output_refs then
      invalid_arg (Printf.sprintf "Cyclesim: no output port named %s" name)
    else
      let n, _, rs = t.output_refs.(k) in
      if String.equal n name then rs.(lane) else go (k + 1)
  in
  go 0

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
  t.cycles <- t.cycles + 1;
  Bytes.blit t.moved 0 t.changed 0 8;
  set64 t.moved 0 0L

let all_lanes t =
  if t.lanes = lane_bits then -1L else Int64.pred (Int64.shift_left 1L t.lanes)

let changed_lanes t = Int64.logand (get64 t.changed 0) (all_lanes t)

let force t ~lane s b =
  check_lane t lane;
  let i = index t s in
  let w = Signal.width t.signals.(i) in
  if Bits.width b <> w then
    invalid_arg
      (Printf.sprintf "Cyclesim.force: value width %d, signal width %d"
         (Bits.width b) w);
  let fv =
    match t.force_vals.(i) with
    | Some fv -> fv
    | None ->
      let fv = Bits.zero (bw w) in
      t.force_vals.(i) <- Some fv;
      fv
  in
  ignore (pack_lane ~dst:fv ~lane b);
  t.force_mask.(i) <- Int64.logor t.force_mask.(i) (Int64.shift_left 1L lane);
  note_moved t (Int64.shift_left 1L lane);
  mark t i

let release t ~lane s =
  check_lane t lane;
  let i = index t s in
  let m = Int64.logand t.force_mask.(i) (Int64.lognot (Int64.shift_left 1L lane)) in
  if not (Int64.equal m t.force_mask.(i)) then begin
    t.force_mask.(i) <- m;
    if Int64.equal m 0L then t.force_vals.(i) <- None;
    note_moved t (Int64.shift_left 1L lane);
    mark t i
  end

let release_all t ~lane =
  check_lane t lane;
  let nm = Int64.lognot (Int64.shift_left 1L lane) in
  for i = 0 to Array.length t.force_mask - 1 do
    let m = Int64.logand t.force_mask.(i) nm in
    if not (Int64.equal m t.force_mask.(i)) then begin
      t.force_mask.(i) <- m;
      if Int64.equal m 0L then t.force_vals.(i) <- None;
      note_moved t (Int64.lognot nm);
      mark t i
    end
  done

let forced t ~lane s =
  check_lane t lane;
  let i = index t s in
  if lane_bit t.force_mask.(i) lane then
    Option.map
      (fun fv -> extract_lane fv ~lane (Signal.width t.signals.(i)))
      t.force_vals.(i)
  else None

let peek t ~lane s =
  check_lane t lane;
  let i = index t s in
  extract_lane t.bufs.(i) ~lane (Signal.width t.signals.(i))

let reader t ~lane s =
  check_lane t lane;
  let src = t.bufs.(index t s) in
  fun dst -> extract_lane_into ~dst src ~lane

let peek_state t ~lane s =
  check_lane t lane;
  let i = index t s in
  match t.state.(i) with
  | Some st -> extract_lane st ~lane (Signal.width t.signals.(i))
  | None -> invalid_arg "Cyclesim.peek_state: signal holds no state"

let poke_state t ~lane s b =
  check_lane t lane;
  let i = index t s in
  match t.state.(i) with
  | None -> invalid_arg "Cyclesim.poke_state: signal holds no state"
  | Some st ->
    if bw (Bits.width b) <> Bits.width st then
      invalid_arg "Cyclesim.poke_state: width mismatch";
    ignore (pack_lane ~dst:st ~lane b);
    note_moved t (Int64.shift_left 1L lane);
    (* The edge kernel's memo thinks [st] still matches its inputs;
       invalidate it or the poked value would survive the next edge on
       enabled lanes, diverging from the scalar engine. *)
    t.poked.(i) <- true;
    mark t i

let memory_contents t ~lane m =
  check_lane t lane;
  let arrs = Hashtbl.find t.mem_arrays (Signal.memory_uid m) in
  (* The caller may mutate the array (fault injection does), so the
     memory's async readers can no longer be assumed clean, and the
     sync-read kernels' write-generation memo is stale. *)
  incr (Hashtbl.find t.mem_gens (Signal.memory_uid m));
  Array.iter (fun j -> mark t j)
    (Simcompile.plan_mem_readers t.plan (Signal.memory_uid m));
  note_moved t (Int64.shift_left 1L lane);
  arrs.(lane)

let reset t =
  Array.fill t.force_mask 0 (Array.length t.force_mask) 0L;
  Array.fill t.force_vals 0 (Array.length t.force_vals) None;
  Array.iteri
    (fun i init ->
      match init with
      | Some init_scalar ->
        let b = broadcast init_scalar in
        Bits.blit ~src:b ~dst:(Option.get t.state.(i));
        Bits.blit ~src:b ~dst:(Option.get t.next_state.(i))
      | None -> ())
    (Simcompile.plan_state_init t.plan);
  Array.iter
    (fun { Simcompile.m_uid; m_zero; _ } ->
      Array.iter
        (fun arr -> Array.fill arr 0 (Array.length arr) m_zero)
        (Hashtbl.find t.mem_arrays m_uid))
    (Simcompile.plan_mems t.plan);
  Array.iter
    (fun inp ->
      let w = Signal.width t.signals.(inp.in_index) in
      Array.iter (fun r -> r := Bits.zero w) inp.in_refs;
      (* Invalidate the pack memo so every lane repacks from its
         fresh zero, and zero the packed image directly — with no refs
         in use the settle sweep trusts the image alone. *)
      Array.iteri (fun l _ -> inp.in_last.(l) <- Bits.zero w) inp.in_last;
      let d = Bits.unsafe_data inp.in_packed in
      for p = 0 to planes d - 1 do
        pset d p 0L
      done;
      inp.in_dirty <- true)
    t.inputs;
  Array.fill t.dirty 0 (Array.length t.dirty) true;
  t.ndirty <- Array.length t.dirty;
  (* State and memories were re-initialised behind the kernels' backs:
     drop every generation memo. *)
  Array.fill t.poked 0 (Array.length t.poked) true;
  Hashtbl.iter (fun _ g -> incr g) t.mem_gens;
  t.cycles <- 0;
  note_moved t (-1L);
  settle t

let cycle_count t = t.cycles
let settles t = t.settles
let node_evals t = t.node_evals
let total_nodes t = Array.length t.signals
let kind_evals t = Array.copy t.kind_evals

(* --- Plane-level access (batched harnesses) ------------------------------ *)

(* Batched stimulus, monitors and collectors avoid the per-lane scalar
   API entirely: one bit-plane read or write touches all lanes at once.
   These are deliberately thin — indices are resolved once at harness
   construction, then the per-cycle path is a handful of word ops. *)

let node_index t s = index t s

let out_node t name =
  let rec go k =
    if k >= Array.length t.output_refs then
      invalid_arg (Printf.sprintf "Cyclesim: no output port named %s" name)
    else
      let n, i, _ = t.output_refs.(k) in
      if String.equal n name then i else go (k + 1)
  in
  go 0

let published_data t i = Bits.unsafe_data t.bufs.(i)

let check_plane d plane =
  if plane < 0 || plane >= planes d then invalid_arg "index out of bounds"

(* Overwrite the [mask] lanes of one input bit-plane with [bits];
   lanes outside [mask] keep their previous value, exactly as a scalar
   driver that does not touch them would leave their refs alone. Takes
   effect at the next settle, like ref assignment (the settle sweep
   compares the packed image against the published value). Do not mix
   with per-lane ref drives of the same port: a ref assignment to lane
   [l] overwrites all of lane [l]'s planes at the next settle. *)
let write_input_plane t k ~plane ~mask ~bits =
  let inp = t.inputs.(k) in
  let ip = Bits.unsafe_data inp.in_packed in
  check_plane ip plane;
  let old = pget ip plane in
  let nv =
    Int64.logor (Int64.logand old (Int64.lognot mask)) (Int64.logand bits mask)
  in
  if nv <> old then begin
    pset ip plane nv;
    note_moved t (Int64.logxor nv old);
    inp.in_dirty <- true
  end
