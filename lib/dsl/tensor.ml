type t = {
  id : int;
  name : string;
  shape : int array;
  dtype : Unit_dtype.Dtype.t;
}

(* Atomic: warm-up and daemon workers mint ids from several domains. *)
let counter = Atomic.make 0

let create ?name ~shape dtype =
  if shape = [] then invalid_arg "Tensor.create: empty shape";
  List.iter
    (fun d ->
      if d <= 0 then
        invalid_arg (Printf.sprintf "Tensor.create: dimension %d must be positive" d))
    shape;
  let id = Atomic.fetch_and_add counter 1 + 1 in
  let name = match name with Some n -> n | None -> "t" ^ string_of_int id in
  { id; name; shape = Array.of_list shape; dtype }

let rank t = Array.length t.shape
let num_elements t = Array.fold_left ( * ) 1 t.shape

let row_major_strides t =
  let n = rank t in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * t.shape.(i + 1)
  done;
  strides

let equal a b = a.id = b.id

let pp fmt t =
  Format.fprintf fmt "%s(%s, %s)" t.name
    (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)))
    (Unit_dtype.Dtype.to_string t.dtype)
