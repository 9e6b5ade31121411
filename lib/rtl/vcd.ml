type tracked = {
  signal : Signal.t;
  id : string; (* VCD short identifier *)
  label : string;
  mutable last : Bits.t option;
}

type t = {
  sim : Cyclesim.t;
  tracked : tracked list;
  initial : Buffer.t; (* every tracked value at #0, for $dumpvars *)
  changes : Buffer.t;
  mutable time : int;
}

let ident_of_index i =
  (* Printable VCD identifiers over '!'..'~'. *)
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let default_signals sim =
  let circuit = Cyclesim.circuit sim in
  let named =
    List.filter (fun s -> Signal.names s <> []) (Circuit.signals circuit)
  in
  let ports = List.map snd (Circuit.inputs circuit @ Circuit.outputs circuit) in
  (* Dedup by uid, keep stable order. *)
  let seen = Hashtbl.create 37 in
  List.filter
    (fun s ->
      if Hashtbl.mem seen (Signal.uid s) then false
      else begin
        Hashtbl.replace seen (Signal.uid s) ();
        true
      end)
    (ports @ named)

(* VCD reference names: keep [a-zA-Z0-9_$], replace anything else, and
   never start with a digit — viewers treat such names as malformed. *)
let sanitize_label s =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '$'
  in
  let s = if s = "" then "unnamed" else s in
  let s = String.map (fun c -> if ok c then c else '_') s in
  if s.[0] >= '0' && s.[0] <= '9' then "s_" ^ s else s

let label_of s =
  sanitize_label
    (match Signal.prim s with
    | Signal.Input n -> n
    | _ -> (
      match Signal.names s with
      | n :: _ -> Printf.sprintf "%s_%d" n (Signal.uid s)
      | [] -> Printf.sprintf "s_%d" (Signal.uid s)))

let create ?signals sim =
  let signals = match signals with Some s -> s | None -> default_signals sim in
  let tracked =
    List.mapi
      (fun i s -> { signal = s; id = ident_of_index i; label = label_of s; last = None })
      signals
  in
  {
    sim;
    tracked;
    initial = Buffer.create 1024;
    changes = Buffer.create 4096;
    time = 0;
  }

let change_line tr v =
  if Bits.width v = 1 then
    Printf.sprintf "%c%s\n" (if Bits.to_bool v then '1' else '0') tr.id
  else Printf.sprintf "b%s %s\n" (Bits.to_string v) tr.id

let sample t =
  if t.time = 0 then
    (* First sample: record every tracked signal for the $dumpvars
       initial-value block instead of the change stream. *)
    List.iter
      (fun tr ->
        let v = Cyclesim.peek t.sim tr.signal in
        tr.last <- Some v;
        Buffer.add_string t.initial (change_line tr v))
      t.tracked
  else begin
    (* Buffer the timestamp: a #time marker is only emitted when at
       least one tracked signal actually changed this cycle. *)
    let stamped = ref false in
    List.iter
      (fun tr ->
        let v = Cyclesim.peek t.sim tr.signal in
        let changed =
          match tr.last with None -> true | Some p -> not (Bits.equal p v)
        in
        if changed then begin
          tr.last <- Some v;
          if not !stamped then begin
            stamped := true;
            Buffer.add_string t.changes (Printf.sprintf "#%d\n" t.time)
          end;
          Buffer.add_string t.changes (change_line tr v)
        end)
      t.tracked
  end;
  t.time <- t.time + 1

let to_string t =
  let buf = Buffer.create (Buffer.length t.changes + 1024) in
  Buffer.add_string buf "$date reproduction run $end\n";
  Buffer.add_string buf "$version hwpat $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf
    (Printf.sprintf "$scope module %s $end\n"
       (sanitize_label (Circuit.name (Cyclesim.circuit t.sim))));
  List.iter
    (fun tr ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" (Signal.width tr.signal) tr.id
           tr.label))
    t.tracked;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  if t.time > 0 then begin
    Buffer.add_string buf "#0\n$dumpvars\n";
    Buffer.add_buffer buf t.initial;
    Buffer.add_string buf "$end\n"
  end;
  Buffer.add_buffer buf t.changes;
  Buffer.contents buf

let write_file t path = Hwpat_base.Atomic_file.write path (to_string t)
