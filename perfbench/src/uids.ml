(* Emitted netlists name signals <name>_<uid> (and memories
   <name>_<memory uid>) after process-global counters, so one emit
   request answered by two processes differs in those numbers (a defect
   of the emitters: the daemon documents its responses as
   deterministic).  Which suffixes are uids is learnt from two emissions
   of the same netlist in one process, between which the counters moved:
   exactly the uid suffixes differ. *)

let is_digit c = c >= '0' && c <= '9'

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* Every _<digits> run that follows an identifier character, in order:
   the text before each run with the run's digits, and the trailing
   text. *)
let split s =
  let n = String.length s in
  let rec go acc start i =
    if i >= n then (List.rev acc, String.sub s start (n - start))
    else if s.[i] = '_' && i > 0 && is_ident s.[i - 1] && i + 1 < n && is_digit s.[i + 1]
    then begin
      let j = ref (i + 1) in
      while !j < n && is_digit s.[!j] do incr j done;
      let piece = (String.sub s start (i + 1 - start), String.sub s (i + 1) (!j - i - 1)) in
      go (piece :: acc) !j !j
    end
    else go acc start (i + 1)
  in
  go [] 0 0

type mask = bool array

let uid_mask a b =
  let pa, ta = split a and pb, tb = split b in
  if ta <> tb || List.compare_lengths pa pb <> 0 then None
  else if List.exists2 (fun (x, _) (y, _) -> x <> y) pa pb then None
  else Some (Array.of_list (List.map2 (fun (_, u) (_, v) -> u <> v) pa pb))

let renumber mask s =
  let pieces, trailing = split s in
  if List.length pieces <> Array.length mask then None
  else begin
    let b = Buffer.create (String.length s) and ids = Hashtbl.create 64 in
    List.iteri
      (fun i (text, digits) ->
        Buffer.add_string b text;
        if mask.(i) then begin
          let k =
            match Hashtbl.find_opt ids digits with
            | Some k -> k
            | None ->
              let k = Hashtbl.length ids in
              Hashtbl.add ids digits k;
              k
          in
          Buffer.add_string b (Printf.sprintf "#%d" k)
        end
        else Buffer.add_string b digits)
      pieces;
    Buffer.add_string b trailing;
    Some (Buffer.contents b)
  end

let equal_but_uids mask ~expected got =
  match (renumber mask expected, renumber mask got) with
  | Some x, Some y -> x = y
  | _ -> false
