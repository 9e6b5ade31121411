(** Comparing emitted netlists that differ only in signal uids. *)

type mask
(** Which [_<digits>] runs of an emitted text are uids.  A run is any
    [_] followed by digits right after an identifier character
    ([s_38], the [218] of [ram_218_t]). *)

val uid_mask : string -> string -> mask option
(** [uid_mask a b] takes two emissions of the same netlist by one
    process, made after the uid counters moved, and marks the runs
    whose digits differ between them: the uids.  Runs that read the
    same in both (a width or index in a name) are not uids.  [None]
    when the texts differ anywhere but in those digits. *)

val renumber : mask -> string -> string option
(** [renumber m s] replaces the digits of every run [m] marks by the
    order of that number's first appearance among the marked runs
    ([#0], [#1], ...) and keeps every other run as it is.  [None] when
    [s] has another number of runs than [m] describes. *)

val equal_but_uids : mask -> expected:string -> string -> bool
(** [equal_but_uids m ~expected got]: [got] and [expected] renumber
    under [m] to the same text — they differ at most by a one-to-one
    renaming of the marked uids. *)
