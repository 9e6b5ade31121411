(** Statistics shared by every workload of the benchmark: medians, the
    tail-percentile rule, self time over child intervals, open-loop
    timing and the backlog test. *)

val median : float list -> float
(** Median with the two middle values averaged; raises
    [Invalid_argument] on an empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile: the
    smallest sample with at least [p]% of the samples at or below it.
    Raises [Invalid_argument] on an empty list. *)

val ladder : float list
(** The percentiles a tail may be reported at, highest first:
    99.9, 99, 95, 90, 75, 50. *)

val tail : float list -> (float * float) option
(** [tail xs] is [Some (p, v)] for the highest percentile [p] of
    {!ladder} that leaves at least ten samples strictly beyond its
    nearest rank, with [v] its value; [None] when fewer than twenty
    samples leave no such percentile. *)

val self_time : span:float * float -> (float * float) list -> float
(** [self_time ~span:(start, stop) children] is the span's duration
    minus the length of the union of its children's intervals clipped
    to the span — overlapping children (spans of parallel workers) are
    counted once. *)

type request = {
  scheduled : float;  (** when the open-loop schedule said to send *)
  sent : float;  (** when the generator actually sent *)
  received : float option;  (** [None]: no response arrived *)
}

val latency : request -> float
(** Time from the scheduled send to the response — a generator stall
    counts against every request it delayed.  [infinity] without a
    response. *)

val lateness : request -> float
(** How late the generator sent: [sent - scheduled], never negative. *)

val backlog_growing : request list -> bool
(** [true] when the number of outstanding requests, sampled at each
    scheduled send, averages more than twice (plus two) over the last
    third of the schedule what it averaged over the first third — the
    offered rate exceeds what the server drains.  A request counts as
    outstanding from its scheduled send, so a generator that falls
    behind cannot hide the backlog.  A server keeping up has a
    stationary backlog.  Needs at least three requests. *)
