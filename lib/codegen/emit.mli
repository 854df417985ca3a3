(** Native code emission: pretty-print a lowered TIR function as an
    OCaml module whose only dependency is {!Unit_emit_hook}.

    The third execution engine (after the tree-walking {!Interp} and the
    closure-compiling {!Compile}): the kernel body becomes flat OCaml —
    unboxed-array accesses, loop variables as [let]-bound ints,
    [Intrin_call] semantics inlined as straight-line code from the
    registered DSL description, [Parallel] loops fanned through a
    host-supplied callback — compiled to a [.cmxs] and [Dynlink]ed by
    {!Emit_cache}.

    Numerics contract: emitted code replicates {!Unit_dtype.Value}'s
    canonicalization on raw payloads (wrap-to-dtype after every integer
    op, round-to-precision after every float op, saturating float→int
    casts), so results are bit-identical to {!Interp} and {!Compile} on
    analyzer-clean programs — the qcheck differential property in the
    tests pins this.  Programs {!Unit_tir.Validate} rejects may diverge
    in their error behaviour only: the emitted code carries no
    per-access bounds checks (OCaml array safety still applies to the
    backing storage).

    Unlike {!Compile}, emitted kernels address every bound tensor
    through a per-tensor element offset, so arena-backed
    {!Ndarray.view}s bind directly. *)

open Unit_tir

exception Unsupported of string
(** Raised by {!render} when the function uses a construct the emitter
    does not cover (f16 dtypes, float-dtyped scalar variables,
    unregistered intrinsics, malformed tiles).  Callers fall back to
    {!Compile}, which reproduces the tree-walker's behaviour — including
    its runtime errors — exactly. *)

val version : int
(** Bumped on any change to the generated code's semantics or calling
    convention; part of {!Emit_cache}'s artifact key, so stale on-disk
    kernels are never loaded. *)

type klass = KF | KI | KL
(** Storage class of a bound tensor: [float array] / [int array] /
    [int64 array] — same partition as {!Compile}. *)

type entry = {
  e_tensor : Unit_dsl.Tensor.t;
  e_buf : Buffer.t;
  e_class : klass;
  e_cell : int;  (** index within the class group passed to the kernel *)
  e_slot : int;  (** index into the per-tensor offsets array *)
}

type plan = {
  p_name : string;
  p_entries : entry list;  (** in [fn_tensors] declaration order *)
  p_nf : int;
  p_ni : int;
  p_nl : int;
}
(** Binding plan: how {!Emit_cache.run_kernel} marshals [Ndarray.t]
    bindings into the generated kernel's argument arrays. *)

val render : Lower.func -> plan * string
(** [render func] is the binding plan and the complete OCaml source of
    the emitted module ([open Unit_emit_hook] for the canonicalizer
    prelude, [kernel] function, trailing [Unit_emit_hook.register]
    call).  Deterministic: equal functions
    render to equal sources, which is what content-addresses the
    compiled artifact.
    @raise Unsupported — see above. *)
