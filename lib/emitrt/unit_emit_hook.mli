(** Runtime shared by the host and Dynlink'd emitted kernels.

    Native [Dynlink] offers no symbol lookup: a loaded [.cmxs] can only
    communicate with its host through a module both sides link against.
    This small, dependency-free library is that module, and it has two
    jobs:

    - a registration slot: each generated kernel ends with
      [let () = Unit_emit_hook.register kernel]; the host calls {!take}
      immediately after [Dynlink.loadfile_private] (under the emit
      cache's Dynlink lock, so concurrent loads cannot race on the
      slot);
    - the fixed canonicalizer prelude every kernel opens
      ([open Unit_emit_hook]).  It is compiled once into the host
      instead of once per kernel, which takes about 10 ms off each cold
      [ocamlopt].  Its [.cmx] is on the emitter's include path, so
      [ocamlopt] inlines the small helpers when the [.cmx] carries
      cross-module information; dune's default dev profile builds with
      [-opaque], and there the helpers are plain calls (the emitted
      kernels measured no slower). *)

type kernel =
  float array array ->
  int array array ->
  int64 array array ->
  int array ->
  (int -> (int -> unit) -> unit) ->
  unit
(** [kernel fcells icells lcells offsets par] runs the emitted kernel.
    [fcells]/[icells]/[lcells] hold the raw storage of every bound
    tensor, grouped by storage class in plan order; [offsets.(slot)] is
    the element offset of plan entry [slot] into its storage (non-zero
    for arena views); [par extent body] fans [body 0 .. body (extent-1)]
    across domains (or runs them serially — the host decides). *)

val register : kernel -> unit
(** Called by the loaded module's top-level initializer. *)

val take : unit -> kernel option
(** Read and clear the slot. *)

(** {1 Canonicalizer prelude}

    Raw-payload replicas of [Unit_dtype.Value]'s canonicalization, which
    emitted code applies after every operation. *)

val w_bool : int -> int
val w_u8 : int -> int
val w_i8 : int -> int
val w_i16 : int -> int
val w_i32 : int -> int
(** Wrap an [int] to the dtype's range, as [Value.wrap] does. *)

val r32 : float -> float
(** Round to f32 precision through its bit pattern. *)

val r_bf16 : float -> float
(** Round to bf16, nearest-even; NaN becomes the canonical quiet NaN. *)

val trunc64 : float -> int64
val trunc : float -> int
(** Truncating float→int conversions, saturating at the [int64] range;
    NaN is 0. *)

val sat_gen : int64 -> int64 -> float -> int
val sat_bool : float -> int
val sat_u8 : float -> int
val sat_i8 : float -> int
val sat_i16 : float -> int
val sat_i32 : float -> int
(** Saturating float→int casts to the dtype's range; NaN is 0. *)
