(** Minimal JSON: the value type, a strict parser and two
    deterministic printers, with zero dependencies.  Every JSON
    document the libraries, the [hwpat] CLI and the bench harness
    write is built as a {!t} and printed here — daemon responses,
    BENCH files, metrics and trace exports, [prove --json] — and the
    daemon parses its requests with the same module.  (The checkpoint
    journal is the exception: its on-disk format predates this module
    and is kept for [--resume].)

    Determinism contract: {!to_string} and {!pretty} are pure
    functions of the value — object members print in the order held
    in the [Obj] list, floats print through one fixed format — so a
    document built from the same data serializes to the same bytes.
    The cached-vs-fresh byte-identity guarantee of the serve cache
    rests on this. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict RFC-8259 parse of one document (surrounding whitespace
    allowed, trailing bytes rejected).  Numbers without [.], [e] or
    [E] that fit an OCaml [int] parse as [Int], everything else as
    [Float].  [\uXXXX] escapes decode to UTF-8 (surrogate pairs
    handled).  Nesting is capped (guards the daemon against
    stack-smashing inputs); errors name the byte offset. *)

val to_string : t -> string
(** Compact rendering ([,] and [:] separators, no whitespace), for
    the wire (one response per line) and for trace files.  Floats
    print as [%.12g], with [.0] added to an integral value so it
    reads back as a float; non-finite floats render as [null]. *)

val pretty : t -> string
(** Indented rendering for files people read and diff, ending in a
    newline.  Objects print one member per line, indented two spaces
    per level, with [": "] after each key.  A list prints on one line
    when it holds only scalars; otherwise one element per line, and
    an element that is an object of scalars (a table row) prints on
    one line.  One-line containers separate items with [", "]. *)

val rounded : int -> float -> t
(** [rounded d x] is [Float x] rounded to [d] decimal places, as
    [%.*f] prints it: the one place the repository fixes how many
    digits a measured value keeps. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

(** {1 Typed accessors for request parameters}

    Each takes [(params, key)] and returns the default when the key is
    absent or the params are not an object; a present member of the
    wrong type raises {!Type_error} — the dispatcher maps it to an
    [invalid-params] error response naming the key. *)

exception Type_error of string

val get_int : t -> string -> default:int -> int
(** Accepts [Int]; also [Float] with an integral value. *)

val get_bool : t -> string -> default:bool -> bool
val get_float : t -> string -> default:float -> float
val get_string : t -> string -> default:string -> string

val get_string_opt : t -> string -> string option
val get_int_opt : t -> string -> int option
val get_list_opt : t -> string -> t list option
