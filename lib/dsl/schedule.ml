module Iter = struct
  type t = {
    id : int;
    name : string;
    extent : int;
    kind : Axis.kind;
  }

  (* Atomic: warm-up and daemon workers mint ids from several domains. *)
  let counter = Atomic.make 0

  let fresh ~name ~extent ~kind =
    { id = Atomic.fetch_and_add counter 1 + 1; name; extent; kind }

  let equal a b = a.id = b.id

  let pp fmt t =
    Format.fprintf fmt "%s<%s,0:%d>" t.name
      (match t.kind with Axis.Data_parallel -> "dp" | Axis.Reduction -> "red")
      t.extent
end

type thread_tag =
  | Block_x
  | Block_y
  | Block_z
  | Thread_x
  | Thread_y
  | Thread_z

type tensorize_info = {
  intrin_name : string;
  axis_binding : (string * int) list;
  operand_binding : (int * string) list;
}

type annotation =
  | Serial
  | Parallel
  | Unroll
  | Vectorize
  | Tensorize of tensorize_info
  | Bind of thread_tag

type relation =
  | Split of { parent : Iter.t; outer : Iter.t; inner : Iter.t; factor : int; exact : bool }
  | Fuse of { outer : Iter.t; inner : Iter.t; fused : Iter.t }

type t = {
  op : Op.t;
  roots : (Axis.t * Iter.t) list;
  relations : relation list;
  leaves : Iter.t list;
  annotations : (int * annotation) list;
}

exception Schedule_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Schedule_error s)) fmt

let create op =
  let roots =
    List.map
      (fun (a : Axis.t) ->
        (a, Iter.fresh ~name:a.name ~extent:a.extent ~kind:a.kind))
      (Op.all_axes op)
  in
  { op; roots; relations = []; leaves = List.map snd roots; annotations = [] }

let op t = t.op
let leaves t = t.leaves

let root_iter t axis =
  match List.find_opt (fun (a, _) -> Axis.equal a axis) t.roots with
  | Some (_, it) -> it
  | None -> error "root_iter: axis %s not in op %s" axis.Axis.name t.op.Op.name

let annotation t (it : Iter.t) =
  match List.assoc_opt it.id t.annotations with Some a -> a | None -> Serial

let leaf_position t it =
  let rec go i = function
    | [] -> error "iter %s is not a leaf" it.Iter.name
    | l :: rest -> if Iter.equal l it then i else go (i + 1) rest
  in
  go 0 t.leaves

let replace_at pos replacement leaves =
  List.concat (List.mapi (fun i l -> if i = pos then replacement else [ l ]) leaves)

let split t it ~factor =
  if factor <= 0 then error "split %s: factor %d must be positive" it.Iter.name factor;
  let pos = leaf_position t it in
  let exact = it.Iter.extent mod factor = 0 in
  let outer_extent = (it.Iter.extent + factor - 1) / factor in
  let outer =
    Iter.fresh ~name:(it.Iter.name ^ ".o") ~extent:outer_extent ~kind:it.Iter.kind
  in
  let inner = Iter.fresh ~name:(it.Iter.name ^ ".i") ~extent:factor ~kind:it.Iter.kind in
  let relation = Split { parent = it; outer; inner; factor; exact } in
  let t =
    { t with
      relations = t.relations @ [ relation ];
      leaves = replace_at pos [ outer; inner ] t.leaves
    }
  in
  (t, outer, inner)

let fuse t a b =
  let pos_a = leaf_position t a and pos_b = leaf_position t b in
  if pos_b <> pos_a + 1 then
    error "fuse: %s is not immediately outside %s" a.Iter.name b.Iter.name;
  if not (Axis.kind_equal a.Iter.kind b.Iter.kind) then
    error "fuse: %s and %s have different kinds" a.Iter.name b.Iter.name;
  let fused =
    Iter.fresh
      ~name:(a.Iter.name ^ "." ^ b.Iter.name)
      ~extent:(a.Iter.extent * b.Iter.extent)
      ~kind:a.Iter.kind
  in
  let relation = Fuse { outer = a; inner = b; fused } in
  let leaves =
    List.filteri (fun i _ -> i <> pos_b) t.leaves |> replace_at pos_a [ fused ]
  in
  (({ t with relations = t.relations @ [ relation ]; leaves } : t), fused)

let fuse_many t = function
  | [] -> error "fuse_many: empty iter list"
  | [ single ] -> (t, single)
  | first :: rest -> List.fold_left (fun (t, acc) it -> fuse t acc it) (t, first) rest

let reorder t its =
  let positions = List.map (leaf_position t) its in
  let ids = List.map (fun (it : Iter.t) -> it.id) its in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    error "reorder: repeated iter";
  let sorted_positions = List.sort compare positions in
  let assignment = List.combine sorted_positions its in
  let leaves =
    List.mapi
      (fun i l ->
        match List.assoc_opt i assignment with Some it -> it | None -> l)
      t.leaves
  in
  { t with leaves }

let annotate t (it : Iter.t) annot =
  ignore (leaf_position t it);
  (match annot, it.kind with
   | (Parallel | Bind (Block_x | Block_y | Block_z)), Axis.Reduction ->
     error "annotate: cannot parallelize reduction iter %s" it.Iter.name
   | _ -> ());
  { t with annotations = (it.id, annot) :: List.remove_assoc it.id t.annotations }

type derivation =
  | D_leaf of Iter.t
  | D_split of derivation * int * derivation
  | D_fuse_outer of derivation * int
  | D_fuse_inner of derivation * int

(* Rebuild an iter's value from leaf loops by inverting the relations: a
   split parent is [outer * factor + inner]; a fused pair decomposes with
   div/mod. *)
let rec derivation_of_iter t (it : Iter.t) =
  if List.exists (Iter.equal it) t.leaves then D_leaf it
  else begin
    let from_relation = function
      | Split { parent; outer; inner; factor; _ } when Iter.equal parent it ->
        Some (D_split (derivation_of_iter t outer, factor, derivation_of_iter t inner))
      | Split _ -> None
      | Fuse { outer; inner; fused } ->
        if Iter.equal outer it then
          Some (D_fuse_outer (derivation_of_iter t fused, inner.Iter.extent))
        else if Iter.equal inner it then
          Some (D_fuse_inner (derivation_of_iter t fused, inner.Iter.extent))
        else None
    in
    match List.find_map from_relation t.relations with
    | Some d -> d
    | None -> error "derivation: %s has no derivation" it.Iter.name
  end

let derivation t axis = derivation_of_iter t (root_iter t axis)

let rec iter_inexact t (it : Iter.t) =
  if List.exists (Iter.equal it) t.leaves then false
  else begin
    let from_relation = function
      | Split { parent; outer; inner; exact; _ } when Iter.equal parent it ->
        Some ((not exact) || iter_inexact t outer || iter_inexact t inner)
      | Split _ -> None
      | Fuse { outer; inner; fused } ->
        if Iter.equal outer it || Iter.equal inner it then Some (iter_inexact t fused)
        else None
    in
    match List.find_map from_relation t.relations with
    | Some b -> b
    | None -> error "axis_needs_guard: %s has no derivation" it.Iter.name
  end

let axis_needs_guard t axis = iter_inexact t (root_iter t axis)

let guards t =
  List.filter_map
    (function
      | Split { parent; exact = false; _ } ->
        Some (derivation_of_iter t parent, parent.Iter.extent)
      | Split _ | Fuse _ -> None)
    t.relations

(* Linear coefficient of [leaf] in the value of [it]; [None] = independent. *)
let rec iter_coefficient t (it : Iter.t) (leaf : Iter.t) =
  if Iter.equal it leaf then Some 1
  else if List.exists (Iter.equal it) t.leaves then Some 0
  else begin
    let from_relation = function
      | Split { parent; outer; inner; factor; _ } when Iter.equal parent it ->
        let co = iter_coefficient t outer leaf in
        let ci = iter_coefficient t inner leaf in
        Some
          (match co, ci with
           | Some c1, Some c2 -> Some ((c1 * factor) + c2)
           | None, _ | _, None -> None)
      | Split _ -> None
      | Fuse { outer; inner; fused } ->
        if Iter.equal outer it || Iter.equal inner it then begin
          (* a div/mod decomposition is linear in [leaf] only when the
             fused value does not depend on it at all *)
          match iter_coefficient t fused leaf with
          | Some 0 -> Some (Some 0)
          | Some _ | None -> Some None
        end
        else None
    in
    match List.find_map from_relation t.relations with
    | Some result -> result
    | None -> error "leaf_coefficient: %s has no derivation" it.Iter.name
  end

let leaf_coefficient t axis leaf = iter_coefficient t (root_iter t axis) leaf

let annotation_to_string = function
  | Serial -> "serial"
  | Parallel -> "parallel"
  | Unroll -> "unroll"
  | Vectorize -> "vectorize"
  | Tensorize info -> Printf.sprintf "tensorize[%s]" info.intrin_name
  | Bind tag ->
    let name =
      match tag with
      | Block_x -> "blockIdx.x"
      | Block_y -> "blockIdx.y"
      | Block_z -> "blockIdx.z"
      | Thread_x -> "threadIdx.x"
      | Thread_y -> "threadIdx.y"
      | Thread_z -> "threadIdx.z"
    in
    "bind:" ^ name

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule of %s:@," t.op.Op.name;
  List.iteri
    (fun depth it ->
      Format.fprintf fmt "%s%a  (%s)@,"
        (String.make (2 * depth) ' ')
        Iter.pp it
        (annotation_to_string (annotation t it)))
    t.leaves;
  Format.fprintf fmt "@]"
