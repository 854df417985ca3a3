(* kernels: cold-tensorize and emit a fixed kernel set, then time
   steady-state runs of every (kernel x {tensorized, scalar reference} x
   {closure-compiled, emitted}) row through [Pipeline.run_func].
   Isolates code generation; graph and serving are bypassed, and so is
   the tree-walking interpreter (~12 s per convolution). *)

open Common
module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload
module Cpu_tuner = Unit_rewriter.Cpu_tuner

type shape =
  | Conv of Workload.conv2d
  | Dense of Workload.dense

(* Table I rows 3 (1056->192 1x1 on 7x7) and 15 (64->128 1x1 s2, 56->28),
   the resnet18 block conv the BENCH_interp/BENCH_emit files time
   (64->64 3x3, 16->14) and resnet18's classifier (dense 512->1000). *)
let set =
  [ ("t1r3", Conv Unit_models.Table1.workloads.(2));
    ("t1r15", Conv Unit_models.Table1.workloads.(14));
    ( "r18blk",
      Conv { Workload.c = 64; h = 16; w = 16; k = 64; kernel = 3; stride = 1; padding = 0; groups = 1 } );
    ("r18fc", Dense { Workload.d_k = 512; d_units = 1000 })
  ]

let variants = [ "tensorized"; "scalar" ]
let engines = [ Pipeline.Compiled; Pipeline.Emitted ]

type kernel = {
  name : string;
  compiled : Pipeline.compiled;
  signature : string;
  funcs : (string * Unit_tir.Lower.func) list;  (** by variant *)
}

let tensorize (name, shape) =
  let c =
    match shape with
    | Conv wl -> Pipeline.conv_compiled_x86 wl
    | Dense wl -> Pipeline.dense_compiled_x86 wl
  in
  let op = c.Pipeline.c_op in
  { name;
    compiled = c;
    signature = Pipeline.workload_signature ~spec:Unit_machine.Spec.cascadelake op c.Pipeline.c_intrin;
    funcs =
      [ ("tensorized", c.Pipeline.c_tuned.Cpu_tuner.t_func);
        ("scalar", Unit_tir.Lower.scalar_reference op)
      ]
  }

let output k = k.compiled.Pipeline.c_op.Unit_dsl.Op.output

(* The tree-walker's digest of each kernel's scalar reference on the
   pinned input: what every row must reproduce. *)
let pin () =
  List.map
    (fun spec ->
      let k = tensorize spec in
      let out = Ndarray.of_tensor_zeros (output k) in
      Unit_codegen.Interp.run (List.assoc "scalar" k.funcs)
        ~bindings:((output k, out) :: op_inputs ~seed:Golden.pin_seed k.compiled.Pipeline.c_op);
      (k.name, Ndarray.digest out))
    set

let row_key k variant engine =
  Printf.sprintf "%s.%s.%s" k.name variant (Pipeline.engine_to_string engine)

(* Each round runs every row once and the emitted rows this many times
   (they are ~10x faster).  Fixed counts and whole rounds keep the mix of
   samples, and so the throughput, the same from run to run: a run does
   as many whole rounds as fit the time at the first round's pace (at
   least [min_rounds]), so a round that happens to end just inside the
   time does not add another. *)
let emitted_reps = 3

let prepare ?(set = set) ?(golden = Golden.kernels) ~seed () =
  let kernels, compile_s =
    timed (fun () ->
        List.map
          (fun spec ->
            let k = Obs.with_span "perfbench.tensorize" ~detail:(fst spec) (fun () -> tensorize spec) in
            List.iter
              (fun (variant, func) ->
                let what = Printf.sprintf "emit %s %s" k.name variant in
                match
                  Obs.with_span "perfbench.emit" ~detail:what (fun () ->
                      Pipeline.prepare_emitted ~signature:(variant ^ "|" ^ k.signature) func)
                with
                | Ok () -> check ~what true
                | Error e -> check ~what:(what ^ ": " ^ e) false)
              k.funcs;
            k)
          set)
  in
  let inputs =
    List.map
      (fun k ->
        let op = k.compiled.Pipeline.c_op in
        (k.name, (op_inputs ~seed:Golden.pin_seed op, op_inputs ~seed op)))
      kernels
  in
  let rows =
    List.concat_map
      (fun k -> List.concat_map (fun v -> List.map (fun e -> (k, v, e)) engines) variants)
      kernels
  in
  let sampled = Hashtbl.create 16 and seeded_ref = Hashtbl.create 4 in
  let sample (k, variant, engine) =
    let key = row_key k variant engine in
    let pin = not (Hashtbl.mem sampled key) in
    let pinned_inputs, seeded_inputs = List.assoc k.name inputs in
    let out = Ndarray.of_tensor_zeros (output k) in
    match
      attempt ~what:key (fun () ->
          snd
            (timed (fun () ->
                 Obs.with_span "perfbench.run" ~detail:key @@ fun () ->
                 Pipeline.run_func ~engine
                   ~signature:(variant ^ "|" ^ k.signature)
                   (List.assoc variant k.funcs)
                   ~bindings:((output k, out) :: (if pin then pinned_inputs else seeded_inputs)))))
    with
    | None -> None
    | Some dt ->
      let d = Ndarray.digest out in
      let expect =
        if pin then List.assoc k.name golden
        else
          match Hashtbl.find_opt seeded_ref k.name with
          | Some d0 -> d0
          | None ->
            Hashtbl.replace seeded_ref k.name d;
            d
      in
      let ok = String.equal d expect in
      if not ok then
        fail
          (Printf.sprintf "%s output digest %s, expected %s (%s)" key d expect
             (if pin then "pinned tree-walker digest" else "this run's first on the seeded input"));
      (* [sampled]: the row ran before; its value: it had an ok sample *)
      let warm = Option.value (Hashtbl.find_opt sampled key) ~default:false in
      Hashtbl.replace sampled key (warm || ok);
      Some
        { cls = (if variant = "tensorized" then Some key else None);
          key;
          ms = dt *. 1e3;
          warm }
  in
  let loop ~seconds ~min_rounds =
    let ops = ref [] in
    let round () =
      List.iter
        (fun ((_, _, engine) as row) ->
          for _ = 1 to if engine = Pipeline.Emitted then emitted_reps else 1 do
            Option.iter (fun o -> ops := o :: !ops) (sample row)
          done)
        rows
    in
    let (), first = timed round in
    for _ = 2 to max min_rounds (Float.to_int (seconds /. first)) do
      round ()
    done;
    List.rev !ops
  in
  let row_median ops key =
    median (List.filter_map (fun o -> if o.key = key then Some o.ms else None) ops)
  in
  let modelled k =
    k.compiled.Pipeline.c_tuned.Cpu_tuner.t_estimate.Unit_machine.Cpu_model.est_cycles
  in
  let tens_over_scalar ops =
    List.concat_map
      (fun k ->
        List.map
          (fun e ->
            let t = row_median ops (row_key k "tensorized" e)
            and s = row_median ops (row_key k "scalar" e) in
            m
              (Printf.sprintf "codegen.%s.%s.tens_over_scalar" k.name (Pipeline.engine_to_string e))
              "ratio"
              (if s = 0.0 then 0.0 else t /. s))
          engines)
      kernels
  in
  let modelled_cycles k = m (Printf.sprintf "machine.%s.modelled_cycles" k.name) "cycles" (modelled k) in
  (* report only: how far the host's ranking of the kernels is from the
     Cascade Lake model's *)
  let rank_corr ops =
    m "machine.rank_corr" "ratio"
      (spearman
         (List.map (fun k -> row_median ops (row_key k "tensorized" Pipeline.Emitted)) kernels)
         (List.map modelled kernels))
  in
  let report ops =
    let geo e = geomean (List.map (fun k -> row_median ops (row_key k "tensorized" e)) kernels) in
    (* each kernel's measured rows next to its modelled cycles *)
    [ m "kernel_compiled_ms" "ms" (geo Pipeline.Compiled); m "kernel_emitted_ms" "ms" (geo Pipeline.Emitted) ]
    @ List.concat_map
        (fun k ->
          List.filter_map
            (fun (k', v, e) ->
              if k' != k then None
              else
                let key = row_key k v e in
                Some (m (Printf.sprintf "codegen.%s_ms" key) "ms" (row_median ops key)))
            rows
          @ [ modelled_cycles k ])
        kernels
    @ tens_over_scalar ops @ [ rank_corr ops ]
  in
  let layers ops ~wall_s =
    let row_ms =
      List.map
        (fun (k, v, e) ->
          let key = row_key k v e in
          ( "codegen." ^ key,
            List.fold_left (fun a o -> if o.key = key then a +. o.ms else a) 0.0 ops ))
        rows
    in
    let total = wall_s *. 1e3 in
    let other = total -. List.fold_left (fun a (_, x) -> a +. x) 0.0 row_ms in
    (tens_over_scalar ops @ List.map modelled_cycles kernels @ [ rank_corr ops ], total, row_ms @ [ ("other (sampling loop, digests)", other) ])
  in
  (* a fallback would silently time the closure engine as "emitted" *)
  let finish () =
    Option.iter
      (fun dg -> fail ("emitted engine fell back: " ^ Unit_tir.Diag.to_string dg))
      (Unit_codegen.Emit_cache.last_fallback ())
  in
  { compile_s; loop; finish; report; layers }
