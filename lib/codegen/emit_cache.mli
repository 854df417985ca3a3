(** Compile, cache and run natively-emitted kernels.

    The pipeline from {!Emit.render}ed source to executable code:
    shell out to [ocamlfind ocamlopt -shared], [Dynlink] the resulting
    [.cmxs] (which self-registers through [Unit_emit_hook]), and memoize
    the loaded kernel per process.  Compiled artifacts are
    content-addressed into the persistent store through
    dependency-inverted {!artifact_hooks} (installed by
    [Unit_store.Store], mirroring [Pipeline.set_tuning_store]), keyed by
    workload signature + emitter/compiler version + source digest — so a
    warm process loads native kernels from disk with zero recompilation.

    Concurrency: a warm hit is a lock-free memo probe; a miss runs
    under a per-key {!Singleflight} flight (store lookup, [ocamlopt],
    install + record, load), so each kernel is loaded exactly once per
    process while distinct kernels compile in parallel.  Only the
    process-global [Dynlink] load and {!Unit_emit_hook.take} share one
    short lock.

    Nothing read from disk is trusted unverified: a stored [.cmxs] must
    match its record's size and content digest before it is Dynlinked.
    A mismatch (or a record without a digest) is a [Diag.Store] warning
    (see {!last_artifact_warning}) and the kernel is recompiled and
    re-recorded.

    Everything degrades: no native [Dynlink], no [ocamlopt], an
    {!Emit.Unsupported} construct, or a failed compile all fall back to
    {!Compile.run} (or {!Interp.run} when a binding is an arena view,
    which the closure engine rejects) with a one-shot [Diag] warning —
    never an error.

    Obs surface: spans [emit.render] / [emit.compile] / [emit.dynlink] /
    [emit.run]; counters [emit.artifact.hit] / [emit.artifact.miss] /
    [emit.artifact.corrupt] / [emit.memo.hit] / [emit.fallback]. *)

open Unit_tir

type stored_artifact = {
  sa_path : string;  (** the [.cmxs] payload *)
  sa_bytes : int;  (** recorded payload size *)
  sa_digest : string option;
      (** recorded hex MD5 of the payload; [None] for records written
          before digests were kept, which never verify *)
}

type artifact_hooks = {
  ah_dir : key:string -> string;
      (** directory that receives the installed [.cmxs] for [key]
          (created on first install).  Keyed so a sharded store can
          route each artifact next to the shard that records it. *)
  ah_lookup : key:string -> stored_artifact option;
      (** a live (current-version, file-present) artifact; the caller
          verifies its size and digest *)
  ah_record :
    key:string -> signature:string -> file:string -> bytes:int -> digest:string -> unit;
      (** persist a freshly compiled artifact record; [digest] is the
          payload's hex MD5 *)
}

val set_artifact_hooks : artifact_hooks option -> unit
(** Install (or clear) the persistent artifact store.  Without hooks,
    compiled kernels live only in the per-process memo. *)

val available : unit -> (unit, string) result
(** Can this process emit at all?  Checks native [Dynlink], a working
    [ocamlfind ocamlopt] (or bare [ocamlopt]), and the presence of the
    [Unit_emit_hook] compilation artifacts (env [UNIT_EMITRT_DIR]
    overrides the search next to the executable).  Memoized. *)

val artifact_key : signature:string -> source:string -> string
(** Content address of a compiled kernel: digest over emitter version,
    [Sys.ocaml_version], the workload signature and the source digest. *)

val prepare :
  ?fault:(key:string -> unit) -> signature:string -> Lower.func -> (unit, string) result
(** Render + compile + load (or hit the caches) without running;
    the warm-up scheduler uses this to pre-bake artifacts.  [fault] runs
    inside the [emit.compile] span, on the compiling domain, just before
    [ocamlopt] — tests block in it to hold a cold compile open; the
    default does nothing. *)

val run :
  ?signature:string ->
  Lower.func ->
  bindings:(Unit_dsl.Tensor.t * Ndarray.t) list ->
  unit
(** Execute [func] through the emitted engine, falling back as described
    above.  [signature] defaults to a per-function ad-hoc key (the
    source digest still content-addresses correctly); pass the
    [Pipeline.workload_signature] so artifacts are shared across
    processes.  Bit-identical to {!Interp.run} / {!Compile.run};
    arena-backed {!Ndarray.view} bindings are supported natively.
    @raise Interp.Runtime_error on binding mismatches, like the other
    engines. *)

val last_artifact_warning : unit -> Diag.t option
(** The most recent [Diag.Store] warning about a stored artifact that
    failed verification in this process. *)

val last_fallback : unit -> Diag.t option
(** The most recent fallback diagnostic emitted by {!run}/{!prepare} in
    this process, for CLI surfacing and tests. *)
