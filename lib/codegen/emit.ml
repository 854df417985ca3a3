open Unit_dtype
open Unit_tir

(* Pretty-printer from lowered TIR to an OCaml module that depends only
   on the host-linked Unit_emit_hook runtime.

   Where {!Compile} builds closures, this renders the same program as flat
   OCaml source for ocamlopt.  Bit-identity with the other engines comes
   from one discipline: every arithmetic result is canonicalized exactly
   as {!Unit_dtype.Value} would — integers wrap to their dtype after every
   op, f32 results round through Int32 bits, float→int casts saturate.
   Compile elides those canonicalizations only where its interval analysis
   proves them the identity, so emitting them unconditionally is always
   bit-identical (and ocamlopt's code is still far ahead of closures).

   The emitter refuses (raising {!Unsupported}) anything whose runtime
   behaviour it cannot reproduce statically — f16, float-dtyped scalar
   vars, unregistered intrinsics, tiles that the semantics layer would
   reject at run time.  {!Emit_cache} then falls back to {!Compile},
   which reproduces the tree-walker's behaviour, errors included.

   Deliberate divergence, confined to analyzer-rejected programs: no
   per-access bounds checks are emitted (a flat index outside the
   buffer's window but inside the backing array reads that cell instead
   of erroring; outside the backing array, OCaml's own array check
   raises).  Alloc scratch visibility is lexical here, while Compile
   leaks the last array past the Alloc's scope — such programs fail to
   compile and take the fallback path instead. *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let version = 4

type klass = KF | KI | KL

type entry = {
  e_tensor : Unit_dsl.Tensor.t;
  e_buf : Buffer.t;
  e_class : klass;
  e_cell : int;
  e_slot : int;
}

type plan = {
  p_name : string;
  p_entries : entry list;
  p_nf : int;
  p_ni : int;
  p_nl : int;
}

module B = Stdlib.Buffer

(* Carrier of a dtype in the generated code: native [int] (canonically
   wrapped), [float] (canonically rounded), or [int64] — the same
   partition as Compile's EI/EF/EV. *)
type carrier = CI | CF | CL

let carrier_of dt =
  match dt with
  | Dtype.F16 -> unsupported "f16 has no native carrier"
  | _ ->
    if Dtype.is_float dt then CF
    else if Dtype.equal dt Dtype.I64 then CL
    else CI

let is_narrow dt = Dtype.is_integer dt && Dtype.bits dt <= 32

(* Canonicalizer names from the fixed prelude in {!Unit_emit_hook}. *)
let wname dt = "w_" ^ Dtype.to_string dt
let satname dt = "sat_" ^ Dtype.to_string dt

(* Round-to-precision: the identity for f64, [r32] for f32, [r_bf16] for
   bf16. *)
let rounded dt s =
  match dt with
  | Dtype.F64 -> s
  | Dtype.F32 -> Printf.sprintf "(r32 %s)" s
  | Dtype.Bf16 -> Printf.sprintf "(r_bf16 %s)" s
  | _ -> unsupported "round to %s" (Dtype.to_string dt)

let int_lit c = if c < 0 then Printf.sprintf "(%d)" c else string_of_int c

let int64_lit x =
  if Int64.equal x Int64.min_int then "Int64.min_int"
  else Printf.sprintf "(%LdL)" x

let float_lit f =
  if Float.is_nan f then "Float.nan"
  else if f = Float.infinity then "Float.infinity"
  else if f = Float.neg_infinity then "Float.neg_infinity"
  else Printf.sprintf "(%h)" f

let value_lit = function
  | Value.Int (dt, x) when is_narrow dt -> int_lit (Int64.to_int x)
  | Value.Int (_, x) -> int64_lit x
  | Value.Float (Dtype.F16, _) -> unsupported "f16 immediate"
  | Value.Float (_, f) -> float_lit f

let render (func : Lower.func) : plan * string =
  (* ---- binding plan: one cell per buffer, grouped by storage class *)
  let nf = ref 0 and ni = ref 0 and nl = ref 0 in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let entries =
    List.mapi
      (fun slot ((t : Unit_dsl.Tensor.t), (b : Buffer.t)) ->
        if Hashtbl.mem seen b.Buffer.id then
          unsupported "buffer %s bound through two tensors" b.Buffer.name;
        Hashtbl.add seen b.Buffer.id ();
        let k =
          match carrier_of b.Buffer.dtype with CF -> KF | CI -> KI | CL -> KL
        in
        let counter = match k with KF -> nf | KI -> ni | KL -> nl in
        let cell = !counter in
        incr counter;
        { e_tensor = t; e_buf = b; e_class = k; e_cell = cell; e_slot = slot })
      func.Lower.fn_tensors
  in
  (* Buffers in scope: id -> [true] when addressed through a per-tensor
     offset (bound entries), [false] for Alloc scratch (always based at 0). *)
  let defined : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace defined e.e_buf.Buffer.id true) entries;
  (* Loop variables whose raw value provably fits their dtype, so the
     per-reference wrap is the identity and is elided. *)
  let raw_vars : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let bound_vars : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let fits_var (v : Var.t) extent =
    Dtype.is_integer v.Var.dtype
    && Int64.compare (Int64.of_int (extent - 1)) (Dtype.max_int_value v.Var.dtype)
       <= 0
  in
  (* ---- interval analysis, mirroring Compile's: a node whose proven
     value range fits its dtype needs no canonicalizing wrap (the wrap is
     the identity), so typical loop-nest address arithmetic renders as
     bare native [+]/[*] instead of a [w_i32] call per node.  The same
     magnitude cap keeps every tracked interval safely inside native-int
     range, so eliding can never change a value. *)
  let ienv : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let cap = 1 lsl 30 in
  let inorm ((lo, hi) as iv) =
    if lo >= -cap && hi <= cap && lo <= hi then Some iv else None
  in
  let ifits dt (lo, hi) =
    Dtype.is_integer dt
    && Int64.compare (Int64.of_int lo) (Dtype.min_int_value dt) >= 0
    && Int64.compare (Int64.of_int hi) (Dtype.max_int_value dt) <= 0
  in
  let rec interval (e : Texpr.t) =
    match e with
    | Texpr.Imm (Value.Int (_, x)) ->
      if Int64.compare (Int64.abs x) (Int64.of_int cap) <= 0 then begin
        let xi = Int64.to_int x in
        Some (xi, xi)
      end
      else None
    | Texpr.Imm (Value.Float _) -> None
    | Texpr.Var v -> Hashtbl.find_opt ienv v.Var.id
    | Texpr.Load (b, _) ->
      let dt = b.Buffer.dtype in
      if is_narrow dt then
        inorm
          ( Int64.to_int (Dtype.min_int_value dt),
            Int64.to_int (Dtype.max_int_value dt) )
      else None
    | Texpr.Cmp _ | Texpr.And _ | Texpr.Or _ | Texpr.Not _ -> Some (0, 1)
    | Texpr.Cast (dt, a) ->
      (match interval a with Some iv when ifits dt iv -> Some iv | _ -> None)
    | Texpr.Select (_, a, b) ->
      (match interval a, interval b with
       | Some (la, ha), Some (lb, hb) ->
         let iv = (Stdlib.min la lb, Stdlib.max ha hb) in
         if ifits (Texpr.dtype_of e) iv then inorm iv else None
       | _ -> None)
    | Texpr.Binop (op, a, b) ->
      (match interval a, interval b with
       | Some (la, ha), Some (lb, hb) ->
         let dt = Texpr.dtype_of e in
         let mk iv = if ifits dt iv then inorm iv else None in
         (match op with
          | Texpr.Add -> mk (la + lb, ha + hb)
          | Texpr.Sub -> mk (la - hb, ha - lb)
          | Texpr.Mul ->
            let p1 = la * lb and p2 = la * hb and p3 = ha * lb and p4 = ha * hb in
            mk
              ( Stdlib.min (Stdlib.min p1 p2) (Stdlib.min p3 p4),
                Stdlib.max (Stdlib.max p1 p2) (Stdlib.max p3 p4) )
          | Texpr.Div ->
            if lb = hb && lb > 0 then mk (la / lb, ha / lb) else None
          | Texpr.Mod ->
            if lb = hb && lb > 0 && la >= 0 then mk (0, Stdlib.min ha (lb - 1))
            else None
          | Texpr.Min -> mk (Stdlib.min la lb, Stdlib.min ha hb)
          | Texpr.Max -> mk (Stdlib.max la lb, Stdlib.max ha hb))
       | _ -> None)
  in
  (* Rendered names must not leak the process-global [Var.id] /
     [Buffer.id] counters: the same logical kernel lowered in two
     processes (fresh tune vs store replay) must produce byte-identical
     source, because the artifact cache content-addresses it.  Both id
     spaces are renamed to first-seen sequential indices — deterministic
     given the IR structure alone. *)
  let var_ids : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let norm_var id =
    match Hashtbl.find_opt var_ids id with
    | Some n -> n
    | None ->
      let n = Hashtbl.length var_ids in
      Hashtbl.add var_ids id n;
      n
  in
  let buf_ids : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let norm_buf id =
    match Hashtbl.find_opt buf_ids id with
    | Some n -> n
    | None ->
      let n = Hashtbl.length buf_ids in
      Hashtbl.add buf_ids id n;
      n
  in
  List.iter (fun e -> ignore (norm_buf e.e_buf.Buffer.id : int)) entries;
  let vname (v : Var.t) = Printf.sprintf "v%d" (norm_var v.Var.id) in
  let cellname (b : Buffer.t) = Printf.sprintf "c%d" (norm_buf b.Buffer.id) in
  let addr_in (b : Buffer.t) idx =
    match Hashtbl.find_opt defined b.Buffer.id with
    | None -> unsupported "buffer %s unbound" b.Buffer.name
    | Some true ->
      Printf.sprintf "%s.(o%d + %s)" (cellname b) (norm_buf b.Buffer.id) idx
    | Some false -> Printf.sprintf "%s.(%s)" (cellname b) idx
  in
  (* ---- expressions; [re] yields the value in its dtype's carrier *)
  let rec re (e : Texpr.t) : string =
    match e with
    | Texpr.Imm v -> value_lit v
    | Texpr.Var v ->
      if not (Hashtbl.mem bound_vars v.Var.id) then
        unsupported "variable %s read out of scope" v.Var.name;
      let dt = v.Var.dtype in
      (match carrier_of dt with
       | CI ->
         if Hashtbl.mem raw_vars v.Var.id then vname v
         else Printf.sprintf "(%s %s)" (wname dt) (vname v)
       | CL -> Printf.sprintf "(Int64.of_int %s)" (vname v)
       | CF -> unsupported "float-dtyped variable %s" v.Var.name)
    | Texpr.Load (b, ix) -> addr_in b (rint ix)
    | Texpr.Binop (op, a, b) -> rbinop e (Texpr.dtype_of e) op a b
    | Texpr.Cmp (c, a, b) -> Printf.sprintf "(if %s then 1 else 0)" (rcmp c a b)
    | Texpr.And (a, b) ->
      Printf.sprintf "(if %s && %s then 1 else 0)" (rtruth a) (rtruth b)
    | Texpr.Or (a, b) ->
      Printf.sprintf "(if %s || %s then 1 else 0)" (rtruth a) (rtruth b)
    | Texpr.Not a -> Printf.sprintf "(if %s then 0 else 1)" (rtruth a)
    | Texpr.Cast (dt, a) ->
      (* a proven-fitting operand makes the narrowing cast the identity *)
      (match carrier_of (Texpr.dtype_of a), carrier_of dt with
       | CI, CI
         when match interval a with Some iv -> ifits dt iv | None -> false ->
         re a
       | _ -> rcast dt (Texpr.dtype_of a) (re a))
    | Texpr.Select (c, a, b) ->
      let da = Texpr.dtype_of a and db = Texpr.dtype_of b in
      if not (Dtype.equal da db) then
        unsupported "select branches of dtype %s vs %s" (Dtype.to_string da)
          (Dtype.to_string db);
      Printf.sprintf "(if %s then %s else %s)" (rtruth c) (re a) (re b)

  (* native-int view of an integer-context expression; mirrors
     Compile.eval_int_c's carrier coercions *)
  and rint e =
    match carrier_of (Texpr.dtype_of e) with
    | CI -> re e
    | CF -> Printf.sprintf "(trunc %s)" (re e)
    | CL -> Printf.sprintf "(Int64.to_int %s)" (re e)

  and rtruth e =
    match e with
    | Texpr.Cmp (c, a, b) -> rcmp c a b
    | _ ->
      (match carrier_of (Texpr.dtype_of e) with
       | CI -> Printf.sprintf "(%s <> 0)" (re e)
       | CF -> Printf.sprintf "(trunc %s <> 0)" (re e)
       | CL -> Printf.sprintf "(not (Int64.equal %s 0L))" (re e))

  and rcmp c a b =
    let op = match c with Texpr.Lt -> "<" | Texpr.Le -> "<=" | Texpr.Eq -> "=" | Texpr.Ne -> "<>" in
    match carrier_of (Texpr.dtype_of a), carrier_of (Texpr.dtype_of b) with
    | CI, CI -> Printf.sprintf "(%s %s %s)" (re a) op (re b)
    | CL, CL -> Printf.sprintf "(Int64.compare %s %s %s 0)" (re a) (re b) op
    | (CI | CF), (CI | CF) ->
      let as_f e = match carrier_of (Texpr.dtype_of e) with
        | CF -> re e
        | _ -> Printf.sprintf "(float_of_int %s)" (re e)
      in
      Printf.sprintf "(Float.compare %s %s %s 0)" (as_f a) (as_f b) op
    | _ ->
      (* mixed int64/other: Value.compare_num over to_float / payloads *)
      let as64 e = match carrier_of (Texpr.dtype_of e) with
        | CL -> re e
        | CI -> Printf.sprintf "(Int64.of_int %s)" (re e)
        | CF -> Printf.sprintf "(trunc64 %s)" (re e)
      in
      (match carrier_of (Texpr.dtype_of a), carrier_of (Texpr.dtype_of b) with
       | CF, _ | _, CF ->
         let as_f e = match carrier_of (Texpr.dtype_of e) with
           | CF -> re e
           | CI -> Printf.sprintf "(float_of_int %s)" (re e)
           | CL -> Printf.sprintf "(Int64.to_float %s)" (re e)
         in
         Printf.sprintf "(Float.compare %s %s %s 0)" (as_f a) (as_f b) op
       | _ -> Printf.sprintf "(Int64.compare %s %s %s 0)" (as64 a) (as64 b) op)

  and rbinop e dt op a b =
    let sa = re a and sb = re b in
    match carrier_of dt with
    | CI ->
      let w = wname dt in
      (* a proven interval means the result fits [dt], so the
         canonicalizing wrap is the identity and is dropped — exactly
         Compile's elision rule *)
      let exact = interval e <> None in
      (match op with
       | Texpr.Add when exact -> Printf.sprintf "(%s + %s)" sa sb
       | Texpr.Sub when exact -> Printf.sprintf "(%s - %s)" sa sb
       | Texpr.Mul when exact -> Printf.sprintf "(%s * %s)" sa sb
       | Texpr.Add -> Printf.sprintf "(%s (%s + %s))" w sa sb
       | Texpr.Sub -> Printf.sprintf "(%s (%s - %s))" w sa sb
       | Texpr.Mul -> Printf.sprintf "(%s (%s * %s))" w sa sb
       | Texpr.Div ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if y_ = 0 then 0 else %s (x_ / y_))"
           sa sb w
       | Texpr.Mod ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if y_ = 0 then 0 else %s (x_ mod y_))"
           sa sb w
       | Texpr.Min ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if x_ <= y_ then x_ else y_)" sa sb
       | Texpr.Max ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if x_ >= y_ then x_ else y_)" sa sb)
    | CF ->
      (match op with
       | Texpr.Add -> rounded dt (Printf.sprintf "(%s +. %s)" sa sb)
       | Texpr.Sub -> rounded dt (Printf.sprintf "(%s -. %s)" sa sb)
       | Texpr.Mul -> rounded dt (Printf.sprintf "(%s *. %s)" sa sb)
       | Texpr.Div -> rounded dt (Printf.sprintf "(%s /. %s)" sa sb)
       | Texpr.Mod -> rounded dt (Printf.sprintf "(Float.rem %s %s)" sa sb)
       (* min/max of canonical values is canonical; no re-round *)
       | Texpr.Min -> Printf.sprintf "(Float.min %s %s)" sa sb
       | Texpr.Max -> Printf.sprintf "(Float.max %s %s)" sa sb)
    | CL ->
      (match op with
       | Texpr.Add -> Printf.sprintf "(Int64.add %s %s)" sa sb
       | Texpr.Sub -> Printf.sprintf "(Int64.sub %s %s)" sa sb
       | Texpr.Mul -> Printf.sprintf "(Int64.mul %s %s)" sa sb
       | Texpr.Div ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.equal y_ 0L then 0L else \
            Int64.div x_ y_)"
           sa sb
       | Texpr.Mod ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.equal y_ 0L then 0L else \
            Int64.rem x_ y_)"
           sa sb
       | Texpr.Min ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.compare x_ y_ <= 0 then x_ \
            else y_)"
           sa sb
       | Texpr.Max ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.compare x_ y_ >= 0 then x_ \
            else y_)"
           sa sb)

  (* Value.cast on carriers; [src]/[dst] drive the same dispatch as
     Compile.comp_cast *)
  and rcast dt src s =
    match carrier_of src, carrier_of dt with
    | CI, CI -> if Dtype.equal dt src then s else Printf.sprintf "(%s %s)" (wname dt) s
    | CI, CF -> rounded dt (Printf.sprintf "(float_of_int %s)" s)
    | CI, CL -> Printf.sprintf "(Int64.of_int %s)" s
    | CF, CF ->
      if Dtype.equal dt Dtype.F64 || Dtype.equal dt src then s else rounded dt s
    | CF, CI -> Printf.sprintf "(%s %s)" (satname dt) s
    | CF, CL -> Printf.sprintf "(trunc64 %s)" s
    | CL, CI -> Printf.sprintf "(%s (Int64.to_int %s))" (wname dt) s
    | CL, CL -> s
    | CL, CF -> rounded dt (Printf.sprintf "(Int64.to_float %s)" s)
  in
  (* ---- intrinsic inlining: the loop nest Semantics.compile_uncached
     runs dynamically, rendered as static straight-line loops *)
  let intrin_counter = ref 0 in
  let render_intrin buf ind ~intrin ~(output : Stmt.tile)
      ~(inputs : (string * Stmt.tile) list) =
    let line i s =
      B.add_string buf (String.make (2 * i) ' ');
      B.add_string buf s;
      B.add_char buf '\n'
    in
    let n = !intrin_counter in
    incr intrin_counter;
    let ins =
      match Unit_isa.Registry.find intrin with
      | Some ins -> ins
      | None -> unsupported "intrinsic %s is not registered" intrin
    in
    let op = ins.Unit_isa.Intrin.op in
    let axes = Array.of_list (op.Unit_dsl.Op.spatial @ op.Unit_dsl.Op.reduce) in
    let n_axes = Array.length axes in
    let n_spatial = List.length op.Unit_dsl.Op.spatial in
    let axis_slot name =
      let found = ref (-1) in
      for j = 0 to n_axes - 1 do
        if String.equal axes.(j).Unit_dsl.Axis.name name then found := j
      done;
      if !found < 0 then None else Some !found
    in
    let check_tile_axes (tile : Stmt.tile) =
      List.iter
        (fun (axis_name, _) ->
          if axis_slot axis_name = None then
            unsupported "%s: tile references unknown axis %s" intrin axis_name)
        tile.Stmt.tile_strides
    in
    let check_spatial_only (tile : Stmt.tile) =
      List.iter
        (fun (name, _) ->
          match axis_slot name with
          | Some j when j >= n_spatial ->
            unsupported "%s: axis %s unbound" intrin name
          | Some _ | None -> ())
        tile.Stmt.tile_strides
    in
    check_tile_axes output;
    List.iter (fun (_, tile) -> check_tile_axes tile) inputs;
    check_spatial_only output;
    let operands =
      let init_tensors =
        match op.Unit_dsl.Op.init with
        | Unit_dsl.Op.Init_tensor c -> [ c ]
        | Unit_dsl.Op.Zero | Unit_dsl.Op.In_place -> []
      in
      Array.of_list
        (List.fold_left
           (fun acc (t : Unit_dsl.Tensor.t) ->
             if List.mem t.Unit_dsl.Tensor.name acc then acc
             else acc @ [ t.Unit_dsl.Tensor.name ])
           []
           (init_tensors @ Unit_dsl.Expr.tensors_of op.Unit_dsl.Op.body))
    in
    let operand_slot name =
      let rec go i =
        if i = Array.length operands then
          unsupported "%s: operand %s not supplied" intrin name
        else if String.equal operands.(i) name then i
        else go (i + 1)
      in
      go 0
    in
    let input_tile name =
      match List.assoc_opt name inputs with
      | Some tile -> tile
      | None -> unsupported "%s: operand %s not supplied" intrin name
    in
    let resolve_tile (tile : Stmt.tile) =
      let strides = Array.make (Stdlib.max n_axes 1) 0 in
      List.iter
        (fun (name, s) ->
          match axis_slot name with
          | Some j -> strides.(j) <- strides.(j) + s
          | None -> ())
        tile.Stmt.tile_strides;
      (tile.Stmt.tile_buf, strides)
    in
    let kvar j = Printf.sprintf "k%d_%d" n j in
    let tile_addr base_name strides =
      let terms = ref [ base_name ] in
      for j = 0 to n_axes - 1 do
        if strides.(j) <> 0 then
          terms := Printf.sprintf "%s * %s" (int_lit strides.(j)) (kvar j) :: !terms
      done;
      String.concat " + " (List.rev !terms)
    in
    (* readers: operand slot -> cell-access string in buffer-dtype carrier *)
    let operand_info =
      Array.mapi
        (fun i name ->
          let tile = input_tile name in
          let buf, strides = resolve_tile tile in
          (* the value the body sees carries the buffer dtype; the intrin
             tensor's dtype must agree or Value's ops would raise *)
          (match Unit_isa.Intrin.tensor_by_name ins name with
           | Some t when Dtype.equal t.Unit_dsl.Tensor.dtype buf.Buffer.dtype -> ()
           | Some t ->
             unsupported "%s: operand %s bound to %s buffer, %s expected" intrin
               name
               (Dtype.to_string buf.Buffer.dtype)
               (Dtype.to_string t.Unit_dsl.Tensor.dtype)
           | None -> unsupported "%s: unknown operand %s" intrin name);
          (tile, buf, strides, Printf.sprintf "tb%d_%d" n (i + 1)))
        operands
    in
    let reader slot =
      let _, buf, strides, base = operand_info.(slot) in
      addr_in buf (tile_addr base strides)
    in
    let out_dtype = op.Unit_dsl.Op.output.Unit_dsl.Tensor.dtype in
    let acc_carrier = carrier_of out_dtype in
    let out_buf, out_strides = resolve_tile output in
    let out_base = Printf.sprintf "tb%d_0" n in
    let out_read = addr_in out_buf (Printf.sprintf "oa_%d" n) in
    (* Value.lift semantics on pre-rendered operand strings: canonicalize
       always (no elision — Value wraps/rounds every op) *)
    let rbinop_str dt op sa sb =
      match carrier_of dt with
      | CI ->
        let w = wname dt in
        (match op with
         | Unit_dsl.Expr.Add -> Printf.sprintf "(%s (%s + %s))" w sa sb
         | Unit_dsl.Expr.Sub -> Printf.sprintf "(%s (%s - %s))" w sa sb
         | Unit_dsl.Expr.Mul -> Printf.sprintf "(%s (%s * %s))" w sa sb
         | Unit_dsl.Expr.Div ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if y_ = 0 then 0 else %s (x_ / y_))"
             sa sb w
         | Unit_dsl.Expr.Mod ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if y_ = 0 then 0 else %s (x_ mod \
              y_))"
             sa sb w
         | Unit_dsl.Expr.Min ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if x_ <= y_ then x_ else y_)" sa sb
         | Unit_dsl.Expr.Max ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if x_ >= y_ then x_ else y_)" sa sb)
      | CF ->
        (match op with
         | Unit_dsl.Expr.Add -> rounded dt (Printf.sprintf "(%s +. %s)" sa sb)
         | Unit_dsl.Expr.Sub -> rounded dt (Printf.sprintf "(%s -. %s)" sa sb)
         | Unit_dsl.Expr.Mul -> rounded dt (Printf.sprintf "(%s *. %s)" sa sb)
         | Unit_dsl.Expr.Div -> rounded dt (Printf.sprintf "(%s /. %s)" sa sb)
         | Unit_dsl.Expr.Mod ->
           rounded dt (Printf.sprintf "(Float.rem %s %s)" sa sb)
         | Unit_dsl.Expr.Min -> Printf.sprintf "(Float.min %s %s)" sa sb
         | Unit_dsl.Expr.Max -> Printf.sprintf "(Float.max %s %s)" sa sb)
      | CL ->
        (match op with
         | Unit_dsl.Expr.Add -> Printf.sprintf "(Int64.add %s %s)" sa sb
         | Unit_dsl.Expr.Sub -> Printf.sprintf "(Int64.sub %s %s)" sa sb
         | Unit_dsl.Expr.Mul -> Printf.sprintf "(Int64.mul %s %s)" sa sb
         | Unit_dsl.Expr.Div ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if Int64.equal y_ 0L then 0L else \
              Int64.div x_ y_)"
             sa sb
         | Unit_dsl.Expr.Mod ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if Int64.equal y_ 0L then 0L else \
              Int64.rem x_ y_)"
             sa sb
         | Unit_dsl.Expr.Min ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if Int64.compare x_ y_ <= 0 then \
              x_ else y_)"
             sa sb
         | Unit_dsl.Expr.Max ->
           Printf.sprintf
             "(let x_ = %s in let y_ = %s in if Int64.compare x_ y_ >= 0 then \
              x_ else y_)"
             sa sb)
    in
    (* the intrinsic body under Value semantics *)
    let rec rbody (e : Unit_dsl.Expr.t) : string =
      match e with
      | Unit_dsl.Expr.Imm v -> value_lit v
      | Unit_dsl.Expr.Axis_ref a ->
        (match axis_slot a.Unit_dsl.Axis.name with
         | Some j -> kvar j
         | None -> unsupported "%s: axis %s unbound" intrin a.Unit_dsl.Axis.name)
      | Unit_dsl.Expr.Access (t, _) -> reader (operand_slot t.Unit_dsl.Tensor.name)
      | Unit_dsl.Expr.Cast (dt, e) -> rcast dt (Unit_dsl.Expr.dtype_of e) (rbody e)
      | Unit_dsl.Expr.Neg e ->
        let dt = Unit_dsl.Expr.dtype_of e in
        let s = rbody e in
        (match carrier_of dt with
         | CI -> Printf.sprintf "(%s (- %s))" (wname dt) s
         | CF -> Printf.sprintf "(-. %s)" s
         | CL -> Printf.sprintf "(Int64.neg %s)" s)
      | Unit_dsl.Expr.Binop (o, a, b) ->
        rbinop_str (Unit_dsl.Expr.dtype_of e) o (rbody a) (rbody b)
    in
    let body_str = rbody op.Unit_dsl.Op.body in
    let acc = Printf.sprintf "acc_%d" n in
    let init_str =
      match op.Unit_dsl.Op.init with
      | Unit_dsl.Op.Zero ->
        (match acc_carrier with CI -> "0" | CF -> "0." | CL -> "0L")
      | Unit_dsl.Op.In_place ->
        if not (Dtype.equal out_buf.Buffer.dtype out_dtype) then
          unsupported "%s: in-place accumulator buffer dtype %s, %s expected"
            intrin
            (Dtype.to_string out_buf.Buffer.dtype)
            (Dtype.to_string out_dtype);
        out_read
      | Unit_dsl.Op.Init_tensor c ->
        check_spatial_only (input_tile c.Unit_dsl.Tensor.name);
        reader (operand_slot c.Unit_dsl.Tensor.name)
    in
    let accum_str =
      match acc_carrier with
      | CI -> Printf.sprintf "%s := %s (!%s + %s);" acc (wname out_dtype) acc body_str
      | CF ->
        (match out_dtype with
         | Dtype.F64 -> Printf.sprintf "%s := !%s +. %s;" acc acc body_str
         | _ ->
           Printf.sprintf "%s := %s;" acc
             (rounded out_dtype (Printf.sprintf "(!%s +. %s)" acc body_str)))
      | CL -> Printf.sprintf "%s := Int64.add !%s %s;" acc acc body_str
    in
    (* cb_write: convert the accumulator into the output buffer's class *)
    let write_payload =
      let bdt = out_buf.Buffer.dtype in
      match carrier_of bdt, acc_carrier with
      | CF, CF ->
        if Dtype.equal bdt Dtype.F64 || Dtype.equal bdt out_dtype then
          Printf.sprintf "!%s" acc
        else rounded bdt (Printf.sprintf "!%s" acc)
      | CF, CI ->
        if Dtype.equal bdt Dtype.F64 then Printf.sprintf "(float_of_int !%s)" acc
        else rounded bdt (Printf.sprintf "(float_of_int !%s)" acc)
      | CF, CL ->
        if Dtype.equal bdt Dtype.F64 then Printf.sprintf "(Int64.to_float !%s)" acc
        else rounded bdt (Printf.sprintf "(Int64.to_float !%s)" acc)
      | CI, CI ->
        if Dtype.equal bdt out_dtype then Printf.sprintf "!%s" acc
        else Printf.sprintf "(%s !%s)" (wname bdt) acc
      | CI, CF -> Printf.sprintf "(%s (trunc !%s))" (wname bdt) acc
      | CI, CL -> Printf.sprintf "(%s (Int64.to_int !%s))" (wname bdt) acc
      | CL, CI -> Printf.sprintf "(Int64.of_int !%s)" acc
      | CL, CF -> Printf.sprintf "(trunc64 !%s)" acc
      | CL, CL -> Printf.sprintf "!%s" acc
    in
    (* ---- emit the nest *)
    line ind "begin";
    let ind1 = ind + 1 in
    line ind1 (Printf.sprintf "let %s = %s in" out_base (rint output.Stmt.tile_base));
    Array.iteri
      (fun i (tile, _, _, base) ->
        ignore i;
        line ind1 (Printf.sprintf "let %s = %s in" base (rint tile.Stmt.tile_base)))
      operand_info;
    let d = ref ind1 in
    for j = 0 to n_spatial - 1 do
      line !d
        (Printf.sprintf "for %s = 0 to %d do" (kvar j)
           (axes.(j).Unit_dsl.Axis.extent - 1));
      incr d
    done;
    line !d
      (Printf.sprintf "let oa_%d = %s in" n (tile_addr out_base out_strides));
    line !d (Printf.sprintf "let %s = ref %s in" acc init_str);
    let dr = ref !d in
    for j = n_spatial to n_axes - 1 do
      line !dr
        (Printf.sprintf "for %s = 0 to %d do" (kvar j)
           (axes.(j).Unit_dsl.Axis.extent - 1));
      incr dr
    done;
    line !dr accum_str;
    for j = n_axes - 1 downto n_spatial do
      ignore j;
      decr dr;
      line !dr "done;"
    done;
    line !d (Printf.sprintf "%s <- %s;" out_read write_payload);
    for j = n_spatial - 1 downto 0 do
      ignore j;
      decr d;
      line !d "done;"
    done;
    line ind "end;"
  in
  (* ---- statements *)
  let buf = B.create 4096 in
  let line i s =
    B.add_string buf (String.make (2 * i) ' ');
    B.add_string buf s;
    B.add_char buf '\n'
  in
  let with_var (v : Var.t) ~raw ?iv f =
    let had_bound = Hashtbl.mem bound_vars v.Var.id in
    let had_raw = Hashtbl.mem raw_vars v.Var.id in
    let had_iv = Hashtbl.find_opt ienv v.Var.id in
    Hashtbl.replace bound_vars v.Var.id ();
    if raw then Hashtbl.replace raw_vars v.Var.id ()
    else Hashtbl.remove raw_vars v.Var.id;
    (match iv with
     | Some iv -> Hashtbl.replace ienv v.Var.id iv
     | None -> Hashtbl.remove ienv v.Var.id);
    f ();
    if not had_bound then Hashtbl.remove bound_vars v.Var.id;
    if had_raw then Hashtbl.replace raw_vars v.Var.id ()
    else Hashtbl.remove raw_vars v.Var.id;
    (match had_iv with
     | Some iv -> Hashtbl.replace ienv v.Var.id iv
     | None -> Hashtbl.remove ienv v.Var.id)
  in
  let rec rs ind ~in_par (s : Stmt.t) =
    match s with
    | Stmt.Nop -> line ind "();"
    | Stmt.Seq stmts -> List.iter (rs ind ~in_par) stmts
    | Stmt.Store (b, ix, v) ->
      let dt = b.Buffer.dtype in
      let dv = Texpr.dtype_of v in
      let payload =
        match carrier_of dt, carrier_of dv with
        | CF, CF ->
          if Dtype.equal dt dv || Dtype.equal dt Dtype.F64 then re v
          else rounded dt (re v)
        | CF, CI -> rounded dt (Printf.sprintf "(float_of_int %s)" (re v))
        | CF, CL -> rounded dt (Printf.sprintf "(Int64.to_float %s)" (re v))
        | CI, CI ->
          if Dtype.equal dt dv then re v
          else Printf.sprintf "(%s %s)" (wname dt) (re v)
        | CI, CF -> Printf.sprintf "(%s (trunc %s))" (wname dt) (re v)
        | CI, CL -> Printf.sprintf "(%s (Int64.to_int %s))" (wname dt) (re v)
        | CL, CI -> Printf.sprintf "(Int64.of_int %s)" (re v)
        | CL, CF -> Printf.sprintf "(trunc64 %s)" (re v)
        | CL, CL -> re v
      in
      (* value before index, like the tree-walker *)
      line ind
        (Printf.sprintf "(let x_ = %s in %s <- x_);" payload (addr_in b (rint ix)))
    | Stmt.For { var; extent; kind; body } ->
      let raw = fits_var var extent in
      let iv = if raw then inorm (0, extent - 1) else None in
      if (match kind with Stmt.Parallel -> true | _ -> false) && not in_par then begin
        line ind (Printf.sprintf "par %d (fun %s ->" extent (vname var));
        with_var var ~raw ?iv (fun () -> rs (ind + 1) ~in_par:true body);
        line (ind + 1) "());"
      end
      else begin
        line ind (Printf.sprintf "for %s = 0 to %d do" (vname var) (extent - 1));
        with_var var ~raw ?iv (fun () -> rs (ind + 1) ~in_par body);
        line ind "done;"
      end
    | Stmt.Let (v, e, body) ->
      if Dtype.is_float v.Var.dtype then
        unsupported "float-dtyped let %s" v.Var.name;
      (* the binding holds [e]'s canonical value; when its proven range
         fits the variable's dtype, reads need no per-reference wrap *)
      let iv =
        match interval e with
        | Some iv when ifits v.Var.dtype iv -> Some iv
        | _ -> None
      in
      line ind (Printf.sprintf "begin let %s = %s in" (vname v) (rint e));
      with_var v ~raw:(iv <> None) ?iv (fun () -> rs (ind + 1) ~in_par body);
      line ind "end;"
    | Stmt.If { cond; then_; else_; likely = _ } ->
      line ind (Printf.sprintf "if %s then begin" (rtruth cond));
      rs (ind + 1) ~in_par then_;
      (match else_ with
       | None -> line ind "end;"
       | Some e ->
         line ind "end else begin";
         rs (ind + 1) ~in_par e;
         line ind "end;")
    | Stmt.Alloc (b, body) ->
      let zero =
        match carrier_of b.Buffer.dtype with
        | CF -> "0."
        | CI -> "0"
        | CL -> "0L"
      in
      line ind
        (Printf.sprintf "begin let %s = Array.make %d %s in" (cellname b)
           b.Buffer.size zero);
      let prev = Hashtbl.find_opt defined b.Buffer.id in
      Hashtbl.replace defined b.Buffer.id false;
      rs (ind + 1) ~in_par body;
      (match prev with
       | Some p -> Hashtbl.replace defined b.Buffer.id p
       | None -> Hashtbl.remove defined b.Buffer.id);
      line ind "end;"
    | Stmt.Intrin_call { intrin; output; inputs } ->
      render_intrin buf ind ~intrin ~output ~inputs
  in
  (* ---- module assembly *)
  B.add_string buf "[@@@warning \"-a\"]\n";
  B.add_string buf
    (Printf.sprintf "(* generated by Unit_codegen.Emit v%d from %s *)\n" version
       func.Lower.fn_name);
  B.add_string buf "open Unit_emit_hook\n";
  B.add_string buf "\nlet kernel af ai al offs par =\n";
  line 1 "ignore af; ignore ai; ignore al; ignore offs; ignore par;";
  List.iter
    (fun e ->
      let arr = match e.e_class with KF -> "af" | KI -> "ai" | KL -> "al" in
      line 1
        (Printf.sprintf "let %s = %s.(%d) in" (cellname e.e_buf) arr e.e_cell);
      line 1
        (Printf.sprintf "let o%d = offs.(%d) in"
           (norm_buf e.e_buf.Buffer.id)
           e.e_slot))
    entries;
  rs 1 ~in_par:false func.Lower.fn_body;
  line 1 "()";
  B.add_string buf "\nlet () = Unit_emit_hook.register kernel\n";
  let plan =
    {
      p_name = func.Lower.fn_name;
      p_entries = entries;
      p_nf = !nf;
      p_ni = !ni;
      p_nl = !nl;
    }
  in
  (plan, B.contents buf)
