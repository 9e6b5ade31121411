type candidate = {
  label : string;
  container : string;
  target : string;
  elem_width : int;
  depth : int;
  luts : int;
  ffs : int;
  brams : int;
  access_cycles : float;
  fmax_mhz : float;
  power_mw : float;
  measured : bool;
}

type constraints = {
  max_luts : int option;
  max_brams : int option;
  max_access_cycles : float option;
  min_fmax_mhz : float option;
  max_power_mw : float option;
}

let no_constraints =
  {
    max_luts = None;
    max_brams = None;
    max_access_cycles = None;
    min_fmax_mhz = None;
    max_power_mw = None;
  }

let within le limit value = match limit with None -> true | Some l -> le value l

let unmeasurable = List.filter (fun cand -> not cand.measured)

(* Candidates whose measurement tripped the characterisation guard
   carry no trustworthy access-time/power figures; they are excluded
   from feasibility and Pareto ranking rather than ranked on garbage
   (report them via [unmeasurable]). *)
let feasible c candidates =
  List.filter
    (fun cand ->
      cand.measured
      && within ( <= ) c.max_luts cand.luts
      && within ( <= ) c.max_brams cand.brams
      && within ( <= ) c.max_access_cycles cand.access_cycles
      && within ( >= ) c.min_fmax_mhz cand.fmax_mhz
      && within ( <= ) c.max_power_mw cand.power_mw)
    candidates

(* Block RAMs are scarce (16 on the board) so weight them against LUT
   area when ranking: one BRAM ~ 256 LUTs of storage equivalent. *)
let area c = float_of_int c.luts +. (256.0 *. float_of_int c.brams)
let latency_ns c = c.access_cycles /. c.fmax_mhz *. 1000.0

let dominates a b =
  let better_or_equal =
    area a <= area b && latency_ns a <= latency_ns b && a.power_mw <= b.power_mw
  in
  let strictly =
    area a < area b || latency_ns a < latency_ns b || a.power_mw < b.power_mw
  in
  better_or_equal && strictly

let pareto_front candidates =
  let candidates = List.filter (fun c -> c.measured) candidates in
  List.filter
    (fun c -> not (List.exists (fun other -> dominates other c) candidates))
    candidates

let region_of_interest constraints candidates =
  pareto_front (feasible constraints candidates)

let to_table candidates =
  let header =
    Printf.sprintf "%-24s | %6s | %5s | %5s | %7s | %6s | %7s" "candidate" "LUTs"
      "FFs" "BRAM" "cyc/acc" "MHz" "mW"
  in
  let sep = String.make (String.length header) '-' in
  let rows =
    List.map
      (fun c ->
        if c.measured then
          Printf.sprintf "%-24s | %6d | %5d | %5d | %7.2f | %6.1f | %7.2f"
            c.label c.luts c.ffs c.brams c.access_cycles c.fmax_mhz c.power_mw
        else
          Printf.sprintf "%-24s | %6d | %5d | %5d | %7s | %6.1f | %7s" c.label
            c.luts c.ffs c.brams "timeout" c.fmax_mhz "-")
      candidates
  in
  String.concat "\n" (header :: sep :: rows)

let to_json candidates =
  let module J = Hwpat_base.Json in
  let if_measured c x = if c.measured then J.rounded 4 x else J.Null in
  J.List
    (List.map
       (fun c ->
         J.Obj
           [
             ("label", J.String c.label);
             ("container", J.String c.container);
             ("target", J.String c.target);
             ("elem_width", J.Int c.elem_width);
             ("depth", J.Int c.depth);
             ("luts", J.Int c.luts);
             ("ffs", J.Int c.ffs);
             ("brams", J.Int c.brams);
             ("measured", J.Bool c.measured);
             ("access_cycles", if_measured c c.access_cycles);
             ("fmax_mhz", J.rounded 2 c.fmax_mhz);
             ("power_mw", if_measured c c.power_mw);
           ])
       candidates)
