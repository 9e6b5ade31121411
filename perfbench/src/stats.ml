let sorted xs =
  if xs = [] then invalid_arg "Stats: no samples";
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: 1-based rank ceil(p/100 * n). *)
let rank n p =
  max 1 (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)))

let percentile xs p =
  let a = sorted xs in
  a.(min (Array.length a) (rank (Array.length a) p) - 1)

let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail xs =
  let n = List.length xs in
  match List.find_opt (fun p -> n - rank n p >= 10) ladder with
  | None -> None
  | Some p -> Some (p, percentile xs p)

let self_time ~span:(start, stop) children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s start and e = Float.min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (s, e) ->
        match cur with
        | Some (cs, ce) when s <= ce -> (acc, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (acc +. (ce -. cs), Some (s, e))
        | None -> (acc, Some (s, e)))
      (0.0, None) clipped
  in
  let covered =
    match last with Some (s, e) -> covered +. (e -. s) | None -> covered
  in
  stop -. start -. covered

type request = { scheduled : float; sent : float; received : float option }

let latency r =
  match r.received with Some t -> t -. r.scheduled | None -> infinity

let lateness r = Float.max 0.0 (r.sent -. r.scheduled)

let backlog_growing reqs =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  if n < 3 then invalid_arg "Stats.backlog_growing: need three requests";
  Array.sort (fun a b -> compare a.scheduled b.scheduled) reqs;
  let outstanding t =
    Array.fold_left
      (fun acc r ->
        let answered = match r.received with Some rt -> rt <= t | None -> false in
        if r.scheduled < t && not answered then acc + 1 else acc)
      0 reqs
  in
  let mean_over lo hi =
    let sum = ref 0 in
    for i = lo to hi - 1 do
      sum := !sum + outstanding reqs.(i).scheduled
    done;
    float_of_int !sum /. float_of_int (hi - lo)
  in
  let third = n / 3 in
  mean_over (n - third) n > (2.0 *. mean_over 0 third) +. 2.0
