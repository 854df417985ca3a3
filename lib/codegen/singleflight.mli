(** Per-key mutual exclusion for idempotent, memoized work.

    The first caller of a key runs the expensive computation while later
    callers of the same key block; when they proceed, the underlying
    memo hit makes their call cheap.  Distinct keys never wait on each
    other.  Two users share this one mechanism:

    - {!Emit_cache} runs each cold native compile (store lookup,
      [ocamlopt], install, record) under its artifact key, so one kernel
      is compiled once per process while unrelated kernels compile in
      parallel.
    - The daemon's request handler wraps the pipeline's kernel memo,
      which compiles {e outside} its lock, so that N concurrent requests
      for one workload run exactly one tune — across request kinds (a
      [run] and a [tune] of the same workload share a flight). *)

type t

val create : unit -> t

val with_key : t -> string -> (unit -> 'a) -> 'a * bool
(** Run [f] holding [key]'s mutex.  The boolean is [true] iff another
    holder of the same key was in flight when this caller arrived (it
    joined an existing flight rather than leading a fresh one).
    Exceptions from [f] propagate; the key is always released. *)
