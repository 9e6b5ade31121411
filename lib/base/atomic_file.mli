(** Output files that are never seen half-written.

    Every file the repository writes — BENCH files, traces, metrics,
    VCD dumps, generated HDL, checkpoint headers — goes through here,
    so a crashed, killed or raising run can never leave a truncated
    artifact under the published name: the callback streams into
    [path ^ ".tmp"] and the temp file is renamed over [path] (atomic
    within a directory on POSIX) only after a clean close.  On an
    exception the temp file is removed and any previous contents of
    [path] survive intact. *)

val with_out : string -> (out_channel -> 'a) -> 'a
(** Open [path ^ ".tmp"] for writing, run the callback, close, and
    atomically rename the result to [path]. If the callback raises,
    the channel is closed, the temp file removed, and the exception
    re-raised with its backtrace; [path] is left untouched. *)

val write : string -> string -> unit
(** [write path contents] is [with_out] writing [contents]. *)
