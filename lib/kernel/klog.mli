(** The kernel log (dmesg).  Subsystems print diagnostics here; tests
    assert on it (e.g. that the net stack complained about a misbehaving
    driver rather than crashing, paper §3.1.1). *)

type level = Debug | Info | Warn | Err

type t

val create : Engine.t -> t

val printk : t -> level -> ('a, Format.formatter, unit, unit) format4 -> 'a

val entries : t -> (int * level * string) list
(** [(timestamp_ns, level, message)] oldest first. *)

val matching : t -> string -> (int * level * string) list
(** Entries whose message contains the given substring. *)
