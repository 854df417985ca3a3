type t = {
  id : int;
  name : string;
  dtype : Unit_dtype.Dtype.t;
}

(* Atomic: warm-up and daemon workers mint ids from several domains. *)
let counter = Atomic.make 0

let create ?(dtype = Unit_dtype.Dtype.I32) name =
  { id = Atomic.fetch_and_add counter 1 + 1; name; dtype }

let equal a b = a.id = b.id
let compare a b = Stdlib.compare a.id b.id
let pp fmt t = Format.pp_print_string fmt t.name
