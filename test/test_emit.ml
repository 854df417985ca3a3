(* Engine-differential tests for the native-emission engine: the
   emitted kernel must be bit-identical to both the tree-walking
   interpreter and the closure engine, across hand-built IR, the full
   tensorization pipeline on all three ISAs, and arena-backed views. *)

open Unit_dtype
open Unit_dsl
open Unit_tir
open Unit_isa
open Unit_codegen
module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload
module Spec = Unit_machine.Spec
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Obs = Unit_obs.Obs

let () = Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let emit_available =
  match Emit_cache.available () with
  | Ok () -> true
  | Error reason ->
    Printf.eprintf
      "NOTE: emitted engine unavailable (%s); differential tests exercise \
       the fallback path only\n\
       %!"
      reason;
    false

(* Run one func through all three engines on identical random inputs;
   outputs must be bit-identical (Ndarray.equal: NaN = NaN, -0. <> 0.).
   When the toolchain is unavailable Emit_cache.run falls back
   internally, so the comparison still holds — it just stops being a
   differential. *)
let differential ?(seed = 42) (func : Lower.func) =
  let fresh () =
    List.map
      (fun ((t : Tensor.t), (b : Buffer.t)) ->
        let arr =
          if Buffer.equal b func.Lower.fn_output then
            Ndarray.zeros ~dtype:b.Buffer.dtype
              ~shape:[ b.Buffer.size ]
          else Ndarray.random_for_tensor ~seed t
        in
        (t, arr))
      func.Lower.fn_tensors
  in
  let out_of bindings =
    List.combine func.Lower.fn_tensors bindings
    |> List.find (fun (((_, b) : Tensor.t * Buffer.t), _) ->
           Buffer.equal b func.Lower.fn_output)
    |> fun (_, (_, arr)) -> arr
  in
  let b_ref = fresh () in
  Interp.run func ~bindings:b_ref;
  let b_emit = fresh () in
  Emit_cache.run func ~bindings:b_emit;
  check_bool
    (Printf.sprintf "%s: emitted = interp" func.Lower.fn_name)
    true
    (Ndarray.equal (out_of b_ref) (out_of b_emit));
  let b_comp = fresh () in
  Compile.run func ~bindings:b_comp;
  check_bool
    (Printf.sprintf "%s: emitted = compiled" func.Lower.fn_name)
    true
    (Ndarray.equal (out_of b_comp) (out_of b_emit))

(* ---------- hand-built IR ---------- *)

let scalar_func ~name ~dtype ~n body_of =
  let t = Tensor.create ~name:"out" ~shape:[ n ] dtype in
  let buf = Buffer.of_tensor t in
  let i = Var.create "i" in
  let body = Stmt.for_ i ~extent:n (body_of buf i) in
  { Lower.fn_name = name; fn_tensors = [ (t, buf) ]; fn_output = buf;
    fn_iter_vars = [ (0, i) ]; fn_body = body }

let test_emit_arith () =
  differential
    (scalar_func ~name:"emit_arith" ~dtype:Dtype.I32 ~n:64 (fun buf i ->
         Stmt.Store
           ( buf,
             Texpr.var i,
             Texpr.add
               (Texpr.mul (Texpr.var i) (Texpr.int_imm 1103))
               (Texpr.select
                  (Texpr.cmp Texpr.Lt
                     (Texpr.mod_ (Texpr.var i) (Texpr.int_imm 7))
                     (Texpr.int_imm 3))
                  (Texpr.int_imm (-5))
                  (Texpr.div (Texpr.var i) (Texpr.int_imm 3))) )))

let test_emit_narrow_wrap () =
  (* i8 output: the emitted kernel must wrap exactly like Value.wrap *)
  differential
    (scalar_func ~name:"emit_wrap" ~dtype:Dtype.I8 ~n:64 (fun buf i ->
         Stmt.Store
           ( buf,
             Texpr.var i,
             Texpr.cast Dtype.I8
               (Texpr.mul (Texpr.var i) (Texpr.int_imm 37)) )))

let test_emit_float_cast_chain () =
  differential
    (scalar_func ~name:"emit_fcast" ~dtype:Dtype.F32 ~n:64 (fun buf i ->
         Stmt.Store
           ( buf,
             Texpr.var i,
             Texpr.mul
               (Texpr.cast Dtype.F32 (Texpr.var i))
               (Texpr.float_imm ~dtype:Dtype.F32 0.1) )))

let test_emit_let_alloc_if () =
  let t = Tensor.create ~name:"out" ~shape:[ 16 ] Dtype.I32 in
  let buf = Buffer.of_tensor t in
  let scratch = Buffer.create ~name:"s" ~dtype:Dtype.I32 ~size:2 () in
  let i = Var.create "i" in
  let v = Var.create "v" in
  let body =
    Stmt.for_ i ~extent:16
      (Stmt.Alloc
         ( scratch,
           Stmt.Let
             ( v,
               Texpr.mul (Texpr.var i) (Texpr.var i),
               Stmt.seq
                 [ Stmt.If
                     { cond =
                         Texpr.cmp Texpr.Le (Texpr.int_imm 50) (Texpr.var v);
                       likely = false;
                       then_ =
                         Stmt.Store (scratch, Texpr.int_imm 0, Texpr.var v);
                       else_ =
                         Some
                           (Stmt.Store
                              ( scratch,
                                Texpr.int_imm 0,
                                Texpr.sub (Texpr.int_imm 0) (Texpr.var v) ))
                     };
                   Stmt.Store
                     (buf, Texpr.var i, Texpr.load scratch (Texpr.int_imm 0))
                 ] ) ))
  in
  differential
    { Lower.fn_name = "emit_ctl"; fn_tensors = [ (t, buf) ]; fn_output = buf;
      fn_iter_vars = [ (0, i) ]; fn_body = body }

(* ---------- pipeline-lowered tensorized kernels ---------- *)

let small_conv =
  { Workload.c = 32; h = 8; w = 8; k = 32; kernel = 3; stride = 1;
    padding = 1; groups = 1 }

let test_emit_pipeline_x86 () =
  let compiled = Pipeline.conv_compiled_x86 small_conv in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

let test_emit_pipeline_arm () =
  let compiled = Pipeline.conv_compiled_arm small_conv in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

(* ---------- arena-backed views ---------- *)

(* The emitted ABI passes per-tensor offsets, so views execute natively;
   the closure engine rejects them, so the oracle is the tree-walker.
   Comparing whole arenas (not just the output window) also proves the
   emitted kernel never writes outside its view. *)
let test_emit_view_bindings () =
  let n = 32 in
  let tin = Tensor.create ~name:"vin" ~shape:[ n ] Dtype.I32 in
  let bin = Buffer.of_tensor tin in
  let tout = Tensor.create ~name:"vout" ~shape:[ n ] Dtype.I32 in
  let bout = Buffer.of_tensor tout in
  let i = Var.create "i" in
  let body =
    Stmt.for_ i ~extent:n
      (Stmt.Store
         ( bout,
           Texpr.var i,
           Texpr.add
             (Texpr.mul (Texpr.load bin (Texpr.var i)) (Texpr.int_imm 3))
             (Texpr.var i) ))
  in
  let func =
    { Lower.fn_name = "emit_view"; fn_tensors = [ (tout, bout); (tin, bin) ];
      fn_output = bout; fn_iter_vars = [ (0, i) ]; fn_body = body }
  in
  let fresh () =
    let arena = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ (2 * n) + 16 ] in
    let vin = Ndarray.view arena ~offset:7 ~dtype:Dtype.I32 ~shape:[ n ] in
    let vout =
      Ndarray.view arena ~offset:(7 + n + 4) ~dtype:Dtype.I32 ~shape:[ n ]
    in
    Ndarray.fill vin (fun ix -> Value.of_int Dtype.I32 ((ix.(0) * 13) - 64));
    (arena, [ (tout, vout); (tin, vin) ])
  in
  let arena_ref, b_ref = fresh () in
  Interp.run func ~bindings:b_ref;
  let arena_emit, b_emit = fresh () in
  check_bool "bindings are genuine views" true
    (List.for_all (fun (_, a) -> Ndarray.is_view a) b_emit);
  Emit_cache.run func ~bindings:b_emit;
  check_bool "view run: whole arenas bit-identical" true
    (Ndarray.equal arena_ref arena_emit)

(* ---------- fallback ladder ---------- *)

(* f16 has no native carrier, so the emitter refuses it while the
   Value-backed engines handle it fine: the run must degrade to the
   closure engine (bit-identically) and surface a structured Diag.Emit
   diagnostic through last_fallback. *)
let test_emit_fallback_diag () =
  let func =
    scalar_func ~name:"emit_f16" ~dtype:Dtype.F16 ~n:16 (fun buf i ->
        Stmt.Store
          ( buf,
            Texpr.var i,
            Texpr.mul
              (Texpr.cast Dtype.F16 (Texpr.var i))
              (Texpr.float_imm ~dtype:Dtype.F16 0.25) ))
  in
  differential func;
  match Emit_cache.last_fallback () with
  | Some d ->
    check_bool "fallback diagnostic carries the emit rule" true
      (d.Diag.rule = Diag.Emit)
  | None -> Alcotest.fail "unsupported kernel left no fallback diagnostic"


(* ---------- Emit_cache concurrency ---------- *)

(* Poll [pred] every millisecond for up to [timeout] seconds. *)
let wait_until ?(timeout = 20.0) pred =
  let deadline = Obs.now () +. timeout in
  let rec go () =
    if pred () then true
    else if Obs.now () > deadline then false
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let const_func name =
  scalar_func ~name ~dtype:Dtype.I32 ~n:32 (fun buf i ->
      Stmt.Store (buf, Texpr.var i, Texpr.add (Texpr.var i) (Texpr.int_imm 5)))

let prepare ?fault func =
  (* the signature [Emit_cache.run] defaults to, so [differential] hits the memo *)
  Emit_cache.prepare ?fault ~signature:("adhoc|" ^ func.Lower.fn_name) func

let spans_named name =
  List.filter (fun sp -> String.equal sp.Obs.sp_name name) (Obs.spans ())

let with_tracing f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

(* A cold compile held open on one domain must not delay a warm memo
   hit on another key: the compile holds no process-wide lock. *)
let test_held_compile_does_not_block_warm_hit () =
  if emit_available then begin
    let warm = const_func "emit_conc_warm" in
    ok "warm-up" (prepare warm);
    let entered = Atomic.make false and release = Atomic.make false in
    let hold ~key:_ =
      Atomic.set entered true;
      ignore (wait_until (fun () -> Atomic.get release) : bool)
    in
    let cold = Domain.spawn (fun () -> prepare ~fault:hold (const_func "emit_conc_held")) in
    check_bool "cold compile entered" true (wait_until (fun () -> Atomic.get entered));
    let warm_done = Atomic.make false in
    let hit =
      Domain.spawn (fun () ->
          let r = prepare warm in
          Atomic.set warm_done true;
          r)
    in
    let unblocked = wait_until ~timeout:10.0 (fun () -> Atomic.get warm_done) in
    let held_meanwhile = not (Atomic.get release) in
    Atomic.set release true;
    ok "held compile" (Domain.join cold);
    ok "warm hit" (Domain.join hit);
    check_bool "warm hit returned while the cold compile was held" true
      (unblocked && held_meanwhile)
  end

(* Concurrent prepares of one key share a single flight: one compile,
   one Dynlink, and the follower reuses the leader's kernel. *)
let test_same_key_compiles_once () =
  if emit_available then begin
    let func = const_func "emit_conc_same" in
    let arrived = Atomic.make 0 in
    (* the leader lingers so the follower queues on its flight *)
    let linger ~key:_ = ignore (wait_until ~timeout:0.3 (fun () -> false) : bool) in
    with_tracing (fun () ->
        let go () =
          Atomic.incr arrived;
          ignore (wait_until (fun () -> Atomic.get arrived = 2) : bool);
          prepare ~fault:linger func
        in
        let other = Domain.spawn go in
        let mine = go () in
        ok "first prepare" mine;
        ok "second prepare" (Domain.join other);
        check_int "one emit.compile span" 1 (List.length (spans_named "emit.compile"));
        check_int "one emit.dynlink span" 1 (List.length (spans_named "emit.dynlink")));
    differential func
  end

(* Distinct cold keys compile in parallel: each compile waits in its
   fault hook until the other has entered, which only happens when no
   lock is held across ocamlopt. *)
let test_distinct_keys_compile_in_parallel () =
  if emit_available then
    with_tracing (fun () ->
        let inside = Atomic.make 0 in
        let meet ~key:_ =
          Atomic.incr inside;
          ignore (wait_until ~timeout:10.0 (fun () -> Atomic.get inside = 2) : bool)
        in
        let other =
          Domain.spawn (fun () -> prepare ~fault:meet (const_func "emit_conc_a"))
        in
        ok "key a" (prepare ~fault:meet (const_func "emit_conc_b"));
        ok "key b" (Domain.join other);
        match spans_named "emit.compile" with
        | [ a; b ] ->
          check_bool "emit.compile spans overlap" true
            (a.Obs.sp_begin < b.Obs.sp_end && b.Obs.sp_begin < a.Obs.sp_end);
          check_bool "on two domains" true (a.Obs.sp_domain <> b.Obs.sp_domain)
        | l -> Alcotest.failf "expected 2 emit.compile spans, got %d" (List.length l))

(* ---------- qcheck: engine differential across workloads and ISAs ---------- *)

(* Randomized conv shapes through the full pipeline on all three
   instruction sets; every tensorized kernel must be bit-identical
   across the three engines.  Shapes the pipeline rejects as
   non-tensorizable are vacuously true. *)
let prop_engines_bit_identical =
  QCheck.Test.make ~name:"emitted = compiled = interp across ISAs" ~count:9
    QCheck.(
      quad (int_range 1 3) (int_range 1 2) (int_range 4 6) (int_range 0 2))
    (fun (co, ko, hw, isa) ->
      let wl =
        { Workload.c = co * 16; h = hw; w = hw; k = ko * 16; kernel = 3;
          stride = 1; padding = 1; groups = 1 }
      in
      match
        (match isa with
         | 0 -> Pipeline.conv_compiled_x86 wl
         | 1 -> Pipeline.conv_compiled_arm wl
         | _ -> Pipeline.conv_compiled_arm ~intrin:"neon.mla.i16" wl)
      with
      | exception Invalid_argument _ -> true
      | compiled ->
        differential ~seed:(co + (10 * ko) + (100 * hw) + (1000 * isa))
          compiled.Pipeline.c_tuned.Cpu_tuner.t_func;
        true)

(* ---------- zoo: smallest real layers under all three engines ---------- *)

(* The tree-walking oracle bounds what is affordable here, so the zoo is
   represented by its smallest real conv (squeezenet) and dense
   (resnet18) workloads — genuine model layers, not synthetic shapes. *)
let smallest_zoo_conv () =
  List.concat_map
    (fun (_, build) ->
      List.map fst (Unit_models.Zoo.conv_workloads (build ())))
    Unit_models.Zoo.all
  |> List.filter (fun (wl : Workload.conv2d) -> wl.Workload.groups = 1)
  |> fun wls ->
  List.fold_left
    (fun best wl ->
      if Workload.macs (Workload.Conv wl) < Workload.macs (Workload.Conv best)
      then wl
      else best)
    (List.hd wls) (List.tl wls)

let smallest_zoo_dense () =
  List.concat_map
    (fun (_, build) ->
      List.map fst (Unit_models.Zoo.dense_workloads (build ())))
    Unit_models.Zoo.all
  |> fun wls ->
  List.fold_left
    (fun best wl ->
      if Workload.macs (Workload.Fc wl) < Workload.macs (Workload.Fc best)
      then wl
      else best)
    (List.hd wls) (List.tl wls)

let test_emit_zoo_conv () =
  let compiled = Pipeline.conv_compiled_x86 (smallest_zoo_conv ()) in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

let test_emit_zoo_dense () =
  let compiled = Pipeline.dense_compiled_arm (smallest_zoo_dense ()) in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "emit"
    [ ( "hand-built",
        [ Alcotest.test_case "arith" `Quick test_emit_arith;
          Alcotest.test_case "narrow wrap" `Quick test_emit_narrow_wrap;
          Alcotest.test_case "float cast" `Quick test_emit_float_cast_chain;
          Alcotest.test_case "let/alloc/if" `Quick test_emit_let_alloc_if;
          Alcotest.test_case "arena-backed views" `Quick
            test_emit_view_bindings;
          Alcotest.test_case "fallback diagnostic" `Quick
            test_emit_fallback_diag
        ] );
      ( "parallel",
        [ Alcotest.test_case "held cold compile, warm hit proceeds" `Quick
            test_held_compile_does_not_block_warm_hit;
          Alcotest.test_case "one key compiles once" `Quick
            test_same_key_compiles_once;
          Alcotest.test_case "distinct keys compile in parallel" `Quick
            test_distinct_keys_compile_in_parallel
        ] );
      ( "pipeline",
        [ Alcotest.test_case "x86 conv" `Quick test_emit_pipeline_x86;
          Alcotest.test_case "arm conv" `Quick test_emit_pipeline_arm
        ]
        @ qcheck [ prop_engines_bit_identical ] );
      ( "zoo",
        [ Alcotest.test_case "smallest conv (squeezenet)" `Slow
            test_emit_zoo_conv;
          Alcotest.test_case "smallest dense (resnet18)" `Slow
            test_emit_zoo_dense
        ] )
    ]

let _ = emit_available
