(* Crash-safe checkpoint journal for resumable campaigns.

   The format is line-oriented JSON: a header line binding the journal
   to one campaign configuration, then one line per completed shard,
   appended and flushed as each shard finishes.  Keys are the
   campaigns' uid-independent shard descriptions, so a journal written
   by one process (serial or sharded, any job count) replays in any
   other.

   Crash safety comes from the append-and-flush discipline plus a
   tolerant reader: a SIGKILL can tear at most the final line, and the
   loader simply stops at the first line that does not parse — every
   fully-flushed record before it is preserved.  (The final summary
   artifacts go through [Hwpat_base.Atomic_file]'s atomic tmp+rename
   scheme instead; the journal is the one file that must survive
   being killed mid-write, which is exactly what append-only gives.)

   Strings are escaped with OCaml's [%S] and parsed back with
   [Scanf]'s [%S], so a record round-trips byte-exactly without a JSON
   parser.  [%S] agrees with JSON string escaping only on printable
   ASCII: other control bytes and every byte >= 128 become [\ddd]
   decimal escapes, which JSON rejects.  The campaigns' descriptions
   are printable ASCII, so their lines happen to be valid JSON, but
   the format is [%S]'s, not JSON's — it is kept as is because
   [--resume] reads journals already on disk. *)

type entry = { e_key : string; e_data : string }

type t = {
  path : string;
  config : string;
  mutable oc : out_channel option;
  mutex : Mutex.t;
  completed : (string, string) Hashtbl.t;
  mutable resumed : int;  (* entries loaded from disk at open time *)
  note : string option;  (* anomaly worth telling the user, e.g. empty file *)
}

exception Config_mismatch of { path : string; expected : string; found : string }

let header_line config =
  Printf.sprintf "{\"hwpat_checkpoint\": 1, \"config\": %S}" config

let parse_header line =
  try Scanf.sscanf line "{\"hwpat_checkpoint\": 1, \"config\": %S}" (fun c -> Some c)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let entry_line ~key data = Printf.sprintf "{\"key\": %S, \"data\": %S}" key data

let parse_entry line =
  try
    Scanf.sscanf line "{\"key\": %S, \"data\": %S}" (fun k d ->
        Some { e_key = k; e_data = d })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* Read every parseable record; stop at the first torn or foreign
   line (a crash can tear only the final one). *)
let load_entries ic =
  let entries = ref [] in
  let stop = ref false in
  (try
     while not !stop do
       match input_line ic with
       | line -> (
         match parse_entry line with
         | Some e -> entries := e :: !entries
         | None -> stop := true)
       | exception End_of_file -> stop := true
     done
   with Sys_error _ -> ());
  List.rev !entries

let start ~path ~config ~resume =
  let completed = Hashtbl.create 97 in
  let resumed = ref 0 in
  let note = ref None in
  if resume && Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    (match input_line ic with
    | header -> (
      match parse_header header with
      | Some found when String.equal found config -> ()
      | Some found -> raise (Config_mismatch { path; expected = config; found })
      | None ->
        failwith
          (Printf.sprintf "checkpoint %s is not a hwpat checkpoint journal"
             path))
    | exception End_of_file ->
      (* Zero-length file: a crash landed before even the header was
         flushed. There is nothing to replay and nothing inconsistent —
         behave exactly like a fresh run, but say so out loud rather
         than silently discarding the --resume request. *)
      let msg =
        Printf.sprintf "checkpoint %s was empty; starting a fresh run" path
      in
      note := Some msg;
      Printf.eprintf "hwpat: note: %s\n%!" msg);
    List.iter
      (fun e ->
        if not (Hashtbl.mem completed e.e_key) then incr resumed;
        Hashtbl.replace completed e.e_key e.e_data)
      (load_entries ic)
  end;
  (* Rewrite the journal from the surviving records (through the
     atomic tmp+rename writer), dropping any torn tail, then reopen in
     append mode for the new run's records. *)
  Hwpat_base.Atomic_file.with_out path (fun oc ->
      output_string oc (header_line config);
      output_char oc '\n';
      Hashtbl.fold (fun k d acc -> (k, d) :: acc) completed []
      |> List.sort compare
      |> List.iter (fun (k, d) ->
             output_string oc (entry_line ~key:k d);
             output_char oc '\n'));
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  {
    path;
    config;
    oc = Some oc;
    mutex = Mutex.create ();
    completed;
    resumed = !resumed;
    note = !note;
  }

let find t key = Hashtbl.find_opt t.completed key
let resumed t = t.resumed
let note t = t.note
let completed t = Hashtbl.length t.completed
let path t = t.path

let record t ~key data =
  Mutex.protect t.mutex (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        Hashtbl.replace t.completed key data;
        output_string oc (entry_line ~key data);
        output_char oc '\n';
        (* Flush per record: after this returns the shard's result
           survives any crash; a kill mid-write tears only this line
           and the loader drops it. *)
        flush oc)

let close t =
  Mutex.protect t.mutex (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        close_out_noerr oc)
