(* Tests for the tensor IR: expression folding, the affine analyses, and —
   most importantly — differential testing of lowering: any schedule must
   compute exactly what the scalar reference computes. *)

open Unit_dtype
open Unit_dsl
open Unit_tir
open Unit_codegen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Texpr folding ---------- *)

let test_constant_folding () =
  let e = Texpr.add (Texpr.int_imm 2) (Texpr.int_imm 3) in
  check_bool "2+3 folds" true (Texpr.as_const_int e = Some 5);
  let v = Var.create "x" in
  let x = Texpr.var v in
  check_bool "x+0 = x" true (Texpr.equal_structural x (Texpr.add x (Texpr.int_imm 0)));
  check_bool "x*1 = x" true (Texpr.equal_structural x (Texpr.mul x (Texpr.int_imm 1)));
  check_bool "x*0 = 0" true (Texpr.as_const_int (Texpr.mul x (Texpr.int_imm 0)) = Some 0);
  check_bool "x/1 = x" true (Texpr.equal_structural x (Texpr.div x (Texpr.int_imm 1)));
  check_bool "x%1 = 0" true (Texpr.as_const_int (Texpr.mod_ x (Texpr.int_imm 1)) = Some 0)

let test_bool_folding () =
  let t = Texpr.cmp Texpr.Lt (Texpr.int_imm 1) (Texpr.int_imm 2) in
  let f = Texpr.cmp Texpr.Lt (Texpr.int_imm 2) (Texpr.int_imm 1) in
  check_bool "true and false" true (Texpr.as_const_int (Texpr.and_ t f) = Some 0);
  check_bool "true or false" true (Texpr.as_const_int (Texpr.or_ t f) = Some 1);
  check_bool "not true" true (Texpr.as_const_int (Texpr.not_ t) = Some 0);
  let v = Texpr.var (Var.create "x") in
  check_bool "select true" true
    (Texpr.equal_structural v (Texpr.select t v (Texpr.int_imm 9)))

let test_substitute () =
  let v = Var.create "x" in
  let e = Texpr.add (Texpr.var v) (Texpr.int_imm 1) in
  let e' = Texpr.substitute [ (v, Texpr.int_imm 4) ] e in
  check_bool "substitution folds" true (Texpr.as_const_int e' = Some 5)

(* ---------- Linear analysis ---------- *)

let test_coefficient () =
  let x = Var.create "x" and y = Var.create "y" in
  let e =
    Texpr.add
      (Texpr.add
         (Texpr.mul (Texpr.var x) (Texpr.int_imm 12))
         (Texpr.mul (Texpr.var y) (Texpr.int_imm 3)))
      (Texpr.int_imm 7)
  in
  check_bool "coeff x" true (Linear.coefficient_of e x = Some 12);
  check_bool "coeff y" true (Linear.coefficient_of e y = Some 3);
  check_bool "coeff absent var" true (Linear.coefficient_of e (Var.create "z") = Some 0);
  (* nonlinear: x*x *)
  let sq = Texpr.mul (Texpr.var x) (Texpr.var x) in
  check_bool "x*x nonlinear" true (Linear.coefficient_of sq x = None);
  (* x/2 nonlinear in x, but constant w.r.t. y *)
  let d = Texpr.div (Texpr.var x) (Texpr.int_imm 2) in
  check_bool "x/2 nonlinear in x" true (Linear.coefficient_of d x = None);
  check_bool "x/2 independent of y" true (Linear.coefficient_of d y = Some 0)

let test_bounds () =
  let x = Var.create "x" and y = Var.create "y" in
  let env v =
    if Var.equal v x then Some (0, 9) else if Var.equal v y then Some (2, 3) else None
  in
  let e = Texpr.add (Texpr.mul (Texpr.var x) (Texpr.int_imm 4)) (Texpr.var y) in
  check_bool "4x+y bounds" true (Linear.bounds ~env e = Some (2, 39));
  let m = Texpr.mod_ (Texpr.var x) (Texpr.int_imm 4) in
  check_bool "x%4 bounds" true (Linear.bounds ~env m = Some (0, 3));
  let d = Texpr.div (Texpr.var x) (Texpr.int_imm 3) in
  check_bool "x/3 bounds" true (Linear.bounds ~env d = Some (0, 3));
  check_bool "unbound var" true (Linear.bounds ~env (Texpr.var (Var.create "z")) = None)

let test_substitute_zero () =
  let x = Var.create "x" and y = Var.create "y" in
  let e = Texpr.add (Texpr.mul (Texpr.var x) (Texpr.int_imm 4)) (Texpr.var y) in
  let base = Linear.substitute_zero [ x ] e in
  check_bool "x zeroed, y kept" true (Texpr.equal_structural base (Texpr.var y))

(* ---------- Lowering + interpretation ---------- *)

(* Execute [op] under [schedule] and under no schedule; outputs must be
   identical.  Inputs are shared between the two runs. *)
let differential op schedule =
  let reference = Lower.scalar_reference op in
  let scheduled = Lower.lower schedule in
  let inputs =
    List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:7 t)) (Op.inputs op)
  in
  let out_ref = Ndarray.of_tensor_zeros op.Op.output in
  let out_sched = Ndarray.of_tensor_zeros op.Op.output in
  Interp.run reference ~bindings:((op.Op.output, out_ref) :: inputs);
  Interp.run scheduled ~bindings:((op.Op.output, out_sched) :: inputs);
  Ndarray.equal out_ref out_sched

let mk_matmul () =
  Op_library.matmul ~n:4 ~m:8 ~k:16 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
    ~acc_dtype:Dtype.I32 ()

let test_scalar_matmul_against_hand_computation () =
  let op =
    Op_library.matmul ~n:2 ~m:2 ~k:3 ~a_dtype:Dtype.I32 ~b_dtype:Dtype.I32
      ~acc_dtype:Dtype.I32 ()
  in
  match Op.inputs op with
  | [ a; b ] ->
    let arr_a =
      Ndarray.init ~dtype:Dtype.I32 ~shape:[ 2; 3 ] (fun ix ->
          Value.of_int Dtype.I32 ((ix.(0) * 3) + ix.(1) + 1))
    in
    (* b is stored transposed: b[j, k] *)
    let arr_b =
      Ndarray.init ~dtype:Dtype.I32 ~shape:[ 2; 3 ] (fun ix ->
          Value.of_int Dtype.I32 ((ix.(0) * 3) + ix.(1) + 1))
    in
    let out = Ndarray.of_tensor_zeros op.Op.output in
    Interp.run_op op ~bindings:[ (a, arr_a); (b, arr_b); (op.Op.output, out) ];
    (* row0 = [1 2 3], so c[0,0] = 1+4+9 = 14, c[0,1] = 1*4+2*5+3*6 = 32 *)
    Alcotest.(check int64) "c[0,0]" 14L (Value.to_int64 (Ndarray.get out [| 0; 0 |]));
    Alcotest.(check int64) "c[0,1]" 32L (Value.to_int64 (Ndarray.get out [| 0; 1 |]));
    Alcotest.(check int64) "c[1,1]" 77L (Value.to_int64 (Ndarray.get out [| 1; 1 |]))
  | _ -> Alcotest.fail "expected 2 inputs"

let test_split_schedule_differential () =
  let op = mk_matmul () in
  let s = Schedule.create op in
  let j = List.nth (Schedule.leaves s) 1 in
  let s, _, _ = Schedule.split s j ~factor:4 in
  check_bool "split matches reference" true (differential op s)

let test_non_dividing_split_differential () =
  let op = mk_matmul () in
  let s = Schedule.create op in
  let j = List.nth (Schedule.leaves s) 1 in
  let s, _, _ = Schedule.split s j ~factor:3 in
  check_bool "guarded residue matches reference" true (differential op s)

let test_reorder_differential () =
  let op = mk_matmul () in
  let s = Schedule.create op in
  (match Schedule.leaves s with
   | [ i; j; k ] ->
     let s = Schedule.reorder s [ k; j; i ] in
     check_bool "fully reversed loops match" true (differential op s)
   | _ -> Alcotest.fail "expected 3 leaves")

let test_fuse_differential () =
  let op = mk_matmul () in
  let s = Schedule.create op in
  (match Schedule.leaves s with
   | [ i; j; _k ] ->
     let s, _ = Schedule.fuse s i j in
     check_bool "fused loops match" true (differential op s)
   | _ -> Alcotest.fail "expected 3 leaves")

let test_conv_schedule_differential () =
  let spec =
    { Op_library.in_channels = 8; in_height = 8; in_width = 8; out_channels = 16;
      kernel = 3; stride = 1 }
  in
  let op =
    Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4 spec
  in
  let s = Schedule.create op in
  (* split output width, reorder a reduce loop inward, unroll the inner *)
  let leaves = Schedule.leaves s in
  let ow = List.nth leaves 2 in
  let s, _owo, owi = Schedule.split s ow ~factor:2 in
  let s = Schedule.annotate s owi Schedule.Unroll in
  check_bool "scheduled conv matches" true (differential op s)

let test_strided_conv_differential () =
  let spec =
    { Op_library.in_channels = 4; in_height = 9; in_width = 9; out_channels = 16;
      kernel = 3; stride = 2 }
  in
  let op =
    Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4 spec
  in
  let s = Schedule.create op in
  let oh = List.nth (Schedule.leaves s) 1 in
  let s, _, _ = Schedule.split s oh ~factor:3 in
  check_bool "strided conv matches" true (differential op s)

let test_init_tensor_semantics () =
  (* d[i] = c[i] + sum_j a[i*2+j]*b[i*2+j], mirroring a VNNI-style
     description executed as a plain op *)
  let a = Tensor.create ~name:"a" ~shape:[ 8 ] Dtype.I32 in
  let b = Tensor.create ~name:"b" ~shape:[ 8 ] Dtype.I32 in
  let c = Tensor.create ~name:"c" ~shape:[ 4 ] Dtype.I32 in
  let d = Tensor.create ~name:"d" ~shape:[ 4 ] Dtype.I32 in
  let i = Axis.data_parallel ~name:"i" 4 in
  let j = Axis.reduction ~name:"j" 2 in
  let index = Expr.add (Expr.mul (Expr.axis i) (Expr.int_imm 2)) (Expr.axis j) in
  let body = Expr.mul (Expr.access a [ index ]) (Expr.access b [ index ]) in
  let op =
    Op.create ~name:"dotlike" ~output:d ~spatial:[ i ] ~reduce:[ j ]
      ~init:(Op.Init_tensor c) body
  in
  let ones shape = Ndarray.init ~dtype:Dtype.I32 ~shape (fun _ -> Value.one Dtype.I32) in
  let arr_c =
    Ndarray.init ~dtype:Dtype.I32 ~shape:[ 4 ] (fun ix -> Value.of_int Dtype.I32 (100 * ix.(0)))
  in
  let out = Ndarray.of_tensor_zeros d in
  Interp.run_op op
    ~bindings:[ (a, ones [ 8 ]); (b, ones [ 8 ]); (c, arr_c); (d, out) ];
  Alcotest.(check int64) "d[0] = 0 + 2" 2L (Value.to_int64 (Ndarray.get out [| 0 |]));
  Alcotest.(check int64) "d[3] = 300 + 2" 302L (Value.to_int64 (Ndarray.get out [| 3 |]))

let test_out_of_bounds_detected () =
  let op = mk_matmul () in
  let func = Lower.scalar_reference op in
  (* bind the output to a too-small array *)
  let inputs = List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:1 t)) (Op.inputs op) in
  let bad_out = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 2; 2 ] in
  match Interp.run func ~bindings:((op.Op.output, bad_out) :: inputs) with
  | exception Interp.Runtime_error _ -> ()
  | () -> Alcotest.fail "undersized binding accepted"

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_pretty_printer_mentions_loops () =
  let op = mk_matmul () in
  let func = Lower.scalar_reference op in
  let text = Stmt.to_string func.Lower.fn_body in
  check_bool "has the i loop" true (contains_substring text "for (i = 0; i < 4");
  check_bool "has the k loop" true (contains_substring text "for (k = 0; k < 16")

(* Property: random schedules (random splits of random leaves plus a random
   reorder) always match the reference. *)
let random_schedule_gen =
  QCheck.Gen.(
    list_size (int_range 0 3) (pair (int_range 0 2) (int_range 2 5)) >>= fun splits ->
    bool >|= fun do_reverse -> (splits, do_reverse))

let prop_random_schedules_match =
  QCheck.Test.make ~name:"random split/reorder schedules match the reference"
    ~count:40
    (QCheck.make random_schedule_gen)
    (fun (splits, do_reverse) ->
      let op = mk_matmul () in
      let s = Schedule.create op in
      let s =
        List.fold_left
          (fun s (leaf_choice, factor) ->
            let leaves = Schedule.leaves s in
            let target = List.nth leaves (leaf_choice mod List.length leaves) in
            let s, _, _ = Schedule.split s target ~factor in
            s)
          s splits
      in
      let s = if do_reverse then Schedule.reorder s (List.rev (Schedule.leaves s)) else s in
      differential op s)

let test_fold_stmts_counts_nodes () =
  let op = mk_matmul () in
  let func = Lower.scalar_reference op in
  let count p = Stmt.fold_stmts (fun n s -> if p s then n + 1 else n) 0 func.Lower.fn_body in
  check_bool "at least the three iteration loops" true
    (count (function Stmt.For _ -> true | _ -> false) >= 3);
  check_bool "fold and exists agree on stores" true
    (Stmt.exists (function Stmt.Store _ -> true | _ -> false) func.Lower.fn_body
    = (count (function Stmt.Store _ -> true | _ -> false) > 0))

let test_exists_early_exit () =
  (* exists must stop walking once the predicate holds: a predicate that
     counts invocations and matches the root sees exactly one node *)
  let op = mk_matmul () in
  let func = Lower.scalar_reference op in
  let visited = ref 0 in
  let found =
    Stmt.exists
      (fun _ ->
        incr visited;
        true)
      func.Lower.fn_body
  in
  check_bool "found at root" true found;
  check_int "stopped after one node" 1 !visited;
  (* and a never-true predicate visits every node, same count as fold *)
  let all = Stmt.fold_stmts (fun n _ -> n + 1) 0 func.Lower.fn_body in
  let walked = ref 0 in
  let none =
    Stmt.exists
      (fun _ ->
        incr walked;
        false)
      func.Lower.fn_body
  in
  check_bool "nothing found" false none;
  check_int "visited all nodes" all !walked

(* buffers_of dedups with name-keyed buckets: a kernel-sized statement
   repeating a handful of buffers thousands of times must return each
   exactly once, in first-appearance order — and two distinct buffers
   that merely share a name must both survive (names are not unique,
   identities are). *)
let test_buffers_of_dedups_repeats () =
  let bufs =
    Array.init 5 (fun i ->
        Buffer.create ~name:(Printf.sprintf "buf%d" i) ~dtype:Dtype.F32 ~size:16 ())
  in
  let stores =
    List.init 4000 (fun i ->
        Stmt.Store (bufs.(i mod 5), Texpr.int_imm (i mod 16), Texpr.float_imm 1.0))
  in
  let got = Stmt.buffers_of (Stmt.Seq stores) in
  check_int "each buffer exactly once" 5 (List.length got);
  List.iteri
    (fun i b ->
      check_bool "first-appearance order" true (Buffer.equal b bufs.(i)))
    got;
  let a = Buffer.create ~name:"dup" ~dtype:Dtype.F32 ~size:8 () in
  let a' = Buffer.create ~name:"dup" ~dtype:Dtype.F32 ~size:8 () in
  let both =
    Stmt.buffers_of
      (Stmt.Seq
         [ Stmt.Store (a, Texpr.int_imm 0, Texpr.float_imm 0.0);
           Stmt.Store (a', Texpr.int_imm 0, Texpr.float_imm 0.0)
         ])
  in
  check_int "same-name distinct buffers both kept" 2 (List.length both)


(* ---------- id minting across domains ---------- *)

(* Two domains mint thousands of ids from every counter at once; the
   ids of each kind must stay pairwise distinct.  A plain [ref] counter
   loses increments here and hands two objects one id, which the
   legality checker then reads as a write/write race. *)
let test_ids_distinct_across_domains () =
  let n = 10_000 in
  let ready = Atomic.make 0 in
  let mint () =
    (* start both domains together so their minting overlaps *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let op =
      Op_library.matmul ~n:2 ~m:2 ~k:2 ~a_dtype:Dtype.I32 ~b_dtype:Dtype.I32
        ~acc_dtype:Dtype.I32 ()
    in
    List.init n (fun _ ->
        let t = Tensor.create ~shape:[ 1 ] Dtype.I32 in
        let ax = Axis.create Axis.Data_parallel ~extent:2 in
        let b = Buffer.of_tensor t in
        let v = Var.create "v" in
        let iters = Schedule.leaves (Schedule.create op) in
        (t.Tensor.id, ax.Axis.id, b.Buffer.id, v.Var.id,
         List.map (fun (it : Schedule.Iter.t) -> it.Schedule.Iter.id) iters))
  in
  let other = Domain.spawn mint in
  let mine = mint () in
  let all = mine @ Domain.join other in
  let distinct proj =
    let ids = List.concat_map proj all in
    List.length (List.sort_uniq compare ids) = List.length ids
  in
  check_bool "tensor ids distinct" true (distinct (fun (t, _, _, _, _) -> [ t ]));
  check_bool "axis ids distinct" true (distinct (fun (_, a, _, _, _) -> [ a ]));
  check_bool "buffer ids distinct" true (distinct (fun (_, _, b, _, _) -> [ b ]));
  check_bool "var ids distinct" true (distinct (fun (_, _, _, v, _) -> [ v ]));
  check_bool "schedule iter ids distinct" true
    (distinct (fun (_, _, _, _, its) -> its))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "tir"
    [ ( "texpr",
        [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "boolean folding" `Quick test_bool_folding;
          Alcotest.test_case "substitute" `Quick test_substitute
        ] );
      ( "linear",
        [ Alcotest.test_case "coefficients" `Quick test_coefficient;
          Alcotest.test_case "interval bounds" `Quick test_bounds;
          Alcotest.test_case "substitute zero" `Quick test_substitute_zero
        ] );
      ( "lowering",
        [ Alcotest.test_case "scalar matmul oracle" `Quick
            test_scalar_matmul_against_hand_computation;
          Alcotest.test_case "split differential" `Quick test_split_schedule_differential;
          Alcotest.test_case "non-dividing split differential" `Quick
            test_non_dividing_split_differential;
          Alcotest.test_case "reorder differential" `Quick test_reorder_differential;
          Alcotest.test_case "fuse differential" `Quick test_fuse_differential;
          Alcotest.test_case "conv schedule differential" `Quick
            test_conv_schedule_differential;
          Alcotest.test_case "strided conv differential" `Quick
            test_strided_conv_differential;
          Alcotest.test_case "init tensor semantics" `Quick test_init_tensor_semantics;
          Alcotest.test_case "out-of-bounds detected" `Quick test_out_of_bounds_detected;
          Alcotest.test_case "printer" `Quick test_pretty_printer_mentions_loops;
          Alcotest.test_case "fold_stmts" `Quick test_fold_stmts_counts_nodes;
          Alcotest.test_case "exists early-exit" `Quick test_exists_early_exit;
          Alcotest.test_case "buffers_of dedups repeats" `Quick
            test_buffers_of_dedups_repeats
        ]
        @ qcheck [ prop_random_schedules_match ] );
      ( "ids",
        [ Alcotest.test_case "distinct across domains" `Quick
            test_ids_distinct_across_domains
        ] )
    ]
