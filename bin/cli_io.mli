(** Structured errors for paths named on the command line
    ([--store], [--trace-out], ...), shared by [unitc] and [unitd]. *)

val die : ('a, unit, string, 'b) format4 -> 'a
(** Print ["<prog>: [io] <detail>"] on stderr and exit 1. *)

val guard : string -> (unit -> 'a) -> 'a
(** [guard flag f] runs [f]; a [Sys_error] or [Unix.Unix_error] from it
    becomes {!die} with the flag named. *)

val check_writable : string -> string -> unit
(** [check_writable flag path] dies unless [path] can be opened for
    writing; an existing file is left untouched. *)
