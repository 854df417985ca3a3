type kernel =
  float array array ->
  int array array ->
  int64 array array ->
  int array ->
  (int -> (int -> unit) -> unit) ->
  unit

let slot : kernel option ref = ref None
let register k = slot := Some k

let take () =
  let k = !slot in
  slot := None;
  k

(* ---- canonicalizers opened by every emitted kernel

   These replicate Unit_dtype.Value's raw-payload canonicalizers
   verbatim; any drift there must be mirrored here (and Emit.version
   bumped).  They live in the host-linked runtime rather than in each
   generated module so ocamlopt compiles them once, not once per kernel
   (see the .mli for how this interacts with inlining). *)

let w_bool x = if x land 0xff = 0 then 0 else 1
let w_u8 x = x land 0xff
let w_i8 x = let m = x land 0xff in if m land 0x80 <> 0 then m - 0x100 else m
let w_i16 x = let m = x land 0xffff in if m land 0x8000 <> 0 then m - 0x10000 else m
let w_i32 x =
  let m = x land 0xffffffff in
  if m land 0x80000000 <> 0 then m - 0x100000000 else m
let r32 x = Int32.float_of_bits (Int32.bits_of_float x)
let r_bf16 x =
  if Float.is_nan x then Int32.float_of_bits 0x7fc00000l
  else begin
    let b = Int32.bits_of_float x in
    let b =
      Int32.add b
        (Int32.add 0x7fffl (Int32.logand (Int32.shift_right_logical b 16) 1l))
    in
    Int32.float_of_bits (Int32.logand b 0xffff0000l)
  end
let trunc64 f =
  if Float.is_nan f then 0L
  else if f >= Int64.to_float Int64.max_int then Int64.max_int
  else if f <= Int64.to_float Int64.min_int then Int64.min_int
  else Int64.of_float f
let trunc f = Int64.to_int (trunc64 f)
let sat_gen lo hi f =
  if Float.is_nan f then 0
  else if f <= Int64.to_float lo then Int64.to_int lo
  else if f >= Int64.to_float hi then Int64.to_int hi
  else Int64.to_int (Int64.of_float f)
let sat_bool f = sat_gen 0L 1L f
let sat_u8 f = sat_gen 0L 255L f
let sat_i8 f = sat_gen (-128L) 127L f
let sat_i16 f = sat_gen (-32768L) 32767L f
let sat_i32 f = sat_gen (-2147483648L) 2147483647L f
