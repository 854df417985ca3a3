type kind =
  | Data_parallel
  | Reduction

type t = {
  id : int;
  name : string;
  kind : kind;
  extent : int;
}

(* Atomic: warm-up and daemon workers mint ids from several domains. *)
let counter = Atomic.make 0

let create ?name kind ~extent =
  if extent <= 0 then
    invalid_arg (Printf.sprintf "Axis.create: extent %d must be positive" extent);
  let id = Atomic.fetch_and_add counter 1 + 1 in
  let name =
    match name with
    | Some n -> n
    | None -> (match kind with Data_parallel -> "i" | Reduction -> "r") ^ string_of_int id
  in
  { id; name; kind; extent }

let data_parallel ?name extent = create ?name Data_parallel ~extent
let reduction ?name extent = create ?name Reduction ~extent

let equal a b = a.id = b.id
let kind_equal (a : kind) (b : kind) = a = b

let kind_to_string = function
  | Data_parallel -> "data_parallel"
  | Reduction -> "reduction"

let pp fmt t =
  Format.fprintf fmt "%s<%s,0:%d>" t.name
    (match t.kind with Data_parallel -> "dp" | Reduction -> "red")
    t.extent
