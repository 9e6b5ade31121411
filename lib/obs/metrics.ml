open Hwpat_base

let buckets = 64

(* Bucket 0 is the explicit zero-and-below bucket: log2 is undefined
   there, and negative observations (clock skew, subtraction underflow
   in a caller) must not index the array with a negative bucket or get
   scattered across the positive range. Everything else lands in
   [floor(log2 v) + 1], so bucket [k >= 1] covers [2^(k-1) .. 2^k - 1]
   and the boundaries are exact: bucket_of 1 = 1, bucket_of 2 = 2,
   bucket_of 3 = 2, bucket_of 4 = 3 — locked in by the regression
   tests in test_obs.ml. *)
let bucket_of v =
  if v <= 0 then 0
  else
    let rec go v k = if v = 0 then k else go (v lsr 1) (k + 1) in
    min (buckets - 1) (go v 0)

type hist = { mutable h_count : int; mutable h_sum : int; h_buckets : int array }

type active = {
  mutex : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

type t = Null | Active of active

let null = Null

let create () =
  Active
    {
      mutex = Mutex.create ();
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      hists = Hashtbl.create 16;
    }

let enabled = function Null -> false | Active _ -> true

let locked a f =
  Mutex.lock a.mutex;
  let r = f () in
  Mutex.unlock a.mutex;
  r

let incr t ?(by = 1) name =
  match t with
  | Null -> ()
  | Active a ->
    locked a (fun () ->
        match Hashtbl.find_opt a.counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add a.counters name (ref by))

let gauge t name v =
  match t with
  | Null -> ()
  | Active a ->
    locked a (fun () ->
        match Hashtbl.find_opt a.gauges name with
        | Some r -> r := v
        | None -> Hashtbl.add a.gauges name (ref v))

let find_hist a name =
  match Hashtbl.find_opt a.hists name with
  | Some h -> h
  | None ->
    let h = { h_count = 0; h_sum = 0; h_buckets = Array.make buckets 0 } in
    Hashtbl.add a.hists name h;
    h

let observe t name v =
  match t with
  | Null -> ()
  | Active a ->
    locked a (fun () ->
        let h = find_hist a name in
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum + v;
        let b = bucket_of v in
        h.h_buckets.(b) <- h.h_buckets.(b) + 1)

let add_histogram t name ~count ~sum bs =
  match t with
  | Null -> ()
  | Active a ->
    locked a (fun () ->
        let h = find_hist a name in
        h.h_count <- h.h_count + count;
        h.h_sum <- h.h_sum + sum;
        Array.iteri
          (fun i n ->
            let i = min i (buckets - 1) in
            h.h_buckets.(i) <- h.h_buckets.(i) + n)
          bs)

let counter_value t name =
  match t with
  | Null -> 0
  | Active a ->
    locked a (fun () ->
        match Hashtbl.find_opt a.counters name with
        | Some r -> !r
        | None -> 0)

(* ---------------------------------------------------------------- *)
(* Export                                                           *)
(* ---------------------------------------------------------------- *)

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let trimmed_buckets h =
  let last = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then last := i) h.h_buckets;
  Array.to_list (Array.sub h.h_buckets 0 (!last + 1))

let to_json t =
  let section tbl value =
    Json.Obj
      (List.map (fun k -> (k, value (Hashtbl.find tbl k))) (sorted_keys tbl))
  in
  let doc counters gauges histograms =
    Json.pretty
      (Json.Obj
         [ ("counters", counters); ("gauges", gauges); ("histograms", histograms) ])
  in
  match t with
  | Null -> doc (Json.Obj []) (Json.Obj []) (Json.Obj [])
  | Active a ->
    locked a (fun () ->
        doc
          (section a.counters (fun r -> Json.Int !r))
          (section a.gauges (fun r -> Json.Float !r))
          (section a.hists (fun h ->
               Json.Obj
                 [
                   ("count", Json.Int h.h_count);
                   ("sum", Json.Int h.h_sum);
                   ( "buckets",
                     Json.List
                       (List.map (fun n -> Json.Int n) (trimmed_buckets h)) );
                 ])))

let summary t =
  match t with
  | Null -> ""
  | Active a ->
    locked a (fun () ->
        let buf = Buffer.create 1024 in
        List.iter
          (fun k ->
            Buffer.add_string buf
              (Printf.sprintf "%-40s %12d\n" k !(Hashtbl.find a.counters k)))
          (sorted_keys a.counters);
        List.iter
          (fun k ->
            Buffer.add_string buf
              (Printf.sprintf "%-40s %12.3f\n" k !(Hashtbl.find a.gauges k)))
          (sorted_keys a.gauges);
        List.iter
          (fun k ->
            let h = Hashtbl.find a.hists k in
            Buffer.add_string buf
              (Printf.sprintf "%-40s count=%d sum=%d mean=%.2f\n" k h.h_count
                 h.h_sum
                 (if h.h_count = 0 then 0.0
                  else float_of_int h.h_sum /. float_of_int h.h_count)))
          (sorted_keys a.hists);
        Buffer.contents buf)

let write_file t path = Atomic_file.write path (to_json t)
