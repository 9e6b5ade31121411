(* Spans read back from a Hwpat_obs trace (Chrome trace-event JSON),
   in seconds on the trace's own clock. *)

module Json = Hwpat_serve.Json

type t = {
  name : string;
  tid : int;  (** domain that recorded the span *)
  start : float;
  stop : float;
}

let of_trace trace =
  match Json.parse (Hwpat_obs.Trace.to_chrome_json trace) with
  | Error e -> failwith ("unreadable trace: " ^ e)
  | Ok doc ->
    let events =
      match Json.get_list_opt doc "traceEvents" with Some l -> l | None -> []
    in
    List.filter_map
      (fun e ->
        if Json.get_string e "ph" ~default:"" <> "X" then None
        else
          let ts = Json.get_float e "ts" ~default:0.0 /. 1e6 in
          Some
            {
              name = Json.get_string e "name" ~default:"";
              tid = Json.get_int e "tid" ~default:0;
              start = ts;
              stop = ts +. (Json.get_float e "dur" ~default:0.0 /. 1e6);
            })
      events

let duration s = s.stop -. s.start
let interval s = (s.start, s.stop)
let named name = List.filter (fun s -> s.name = name)

let has_prefix prefix s = String.starts_with ~prefix s.name

let total spans = List.fold_left (fun acc s -> acc +. duration s) 0.0 spans

(* Spans that lie inside [outer]'s interval, any domain. *)
let within outer spans =
  List.filter
    (fun s -> s != outer && s.start >= outer.start && s.stop <= outer.stop)
    spans
