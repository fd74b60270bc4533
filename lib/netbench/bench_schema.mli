(** The machine-readable bench baseline format ([BENCH_*.json]).

    Every harness that emits a baseline builds a {!t} and hands it to
    {!write}; every gate that reads an earlier baseline goes through
    {!of_file} + {!path} instead of substring-scanning the file.  The
    schema is versioned: document [N] carries ["schema": "sud-bench/N"]
    (see {!schema}), and the parser accepts every version ever checked
    in, so a new harness can always read the baselines of its
    predecessors.

    The printer is deterministic (two-space indent, short collections
    inlined) and the parser is total on its output: for every [v],
    [of_string (to_string v) = Ok v] once floats are built through
    {!fnum} (which rounds to a decimal budget, exactly what a baseline
    wants anyway — nobody gates on the 15th digit of a throughput
    sample). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val schema : int -> string * t
(** [schema n] is the leading [("schema", Str "sud-bench/n")] field. *)

val fnum : ?dp:int -> float -> t
(** A float field rounded to [dp] decimal places (default 3).  NaN and
    infinities become [Null], matching the old emitters' convention for
    "no estimate". *)

(** {1 Printing} *)

val to_string : t -> string
(** Render with a trailing newline, ready for the file. *)

val write : path:string -> t -> unit

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Full JSON parser (numbers, strings with escapes, nested
    collections).  Numbers without [.]/[e] that fit in [int] parse as
    {!Int}, everything else as {!Float}.  Errors carry the byte
    offset. *)

val of_file : string -> (t, string) result
(** [Error] on unreadable files as well as unparseable ones. *)

(** {1 Readers} *)

val member : t -> string -> t option
(** Field lookup on an {!Obj}; [None] on missing field or non-object. *)

val path : t -> string list -> t option
(** Chained {!member}: [path doc ["micro"; key; "ns_per_op"]]. *)

val as_float : t -> float option
(** {!Int} or {!Float} as a number; everything else [None]. *)

val as_str : t -> string option
val as_bool : t -> bool option
val as_list : t -> t list option

val find_point : t list -> (string * t) list -> t option
(** [find_point points keys] is the first {!Obj} in [points] whose
    fields match every [(name, value)] in [keys] — the "row of the
    sweep table" lookup every gate needs, e.g.
    [find_point pts ["queues", Int 4]]. *)
