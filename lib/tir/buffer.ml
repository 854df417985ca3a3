type t = {
  id : int;
  name : string;
  dtype : Unit_dtype.Dtype.t;
  size : int;
  source : int option;
}

(* Atomic: warm-up and daemon workers mint ids from several domains. *)
let counter = Atomic.make 0

let create ?source ~name ~dtype ~size () =
  if size <= 0 then invalid_arg (Printf.sprintf "Buffer.create %s: size %d" name size);
  { id = Atomic.fetch_and_add counter 1 + 1; name; dtype; size; source }

let of_tensor (tensor : Unit_dsl.Tensor.t) =
  create ~source:tensor.id ~name:tensor.name ~dtype:tensor.dtype
    ~size:(Unit_dsl.Tensor.num_elements tensor) ()

let bytes t = t.size * Unit_dtype.Dtype.bytes t.dtype
let equal a b = a.id = b.id

let pp fmt t =
  Format.fprintf fmt "%s:%s[%d]" t.name (Unit_dtype.Dtype.to_string t.dtype) t.size
