(* model-resnet18: cold-compile the model's distinct conv/dense kernels
   into a fresh store on the emitted engine, then time whole-model
   inference through the reference graph executor.  Serving is
   bypassed; the graph layer is exercised only here. *)

open Common
module Graph = Unit_graph.Graph
module Executor = Unit_graph.Executor
module Pipeline = Unit_core.Pipeline
module Warmup = Unit_store.Warmup
module Sharded = Unit_store.Sharded
module Emit_cache = Unit_codegen.Emit_cache

(* The zoo's graph and weights at an 80x80 input instead of 224x224:
   the same 20 convolutions at an eighth of the MACs, so one inference
   takes ~4 s here rather than ~25 s and a 20 s run takes the median of
   several (this host's speed drifts by 10-15% over tens of seconds). *)
let resolution = 80

let float_graph () =
  Graph.map_nodes (Unit_models.Resnet.resnet18 ()) ~f:(fun n ->
      match n.Graph.kind with
      | Graph.Input { shape = [ c; _; _ ]; dtype } ->
        (Graph.Input { shape = [ c; resolution; resolution ]; dtype }, n.Graph.inputs, n.Graph.fused)
      | k -> (k, n.Graph.inputs, n.Graph.fused))

(* The quantized, fused graph the executor runs, and one emitted-engine
   warm-up job per distinct kernel (what [Warmup.jobs_of_model] builds
   for the zoo's resnet18, here at [resolution]). *)
let build () =
  let fg = float_graph () in
  let g = Unit_graph.Passes.fuse (Unit_graph.Passes.quantize_structural ~act_dtype:Dtype.U8 fg) in
  let jobs =
    List.map
      (fun (wl, _) -> Warmup.conv_job ~engine:Pipeline.Emitted Warmup.X86 wl)
      (Unit_models.Zoo.conv_workloads fg)
    @ List.map
        (fun (wl, _) -> Warmup.dense_job ~engine:Pipeline.Emitted Warmup.X86 wl)
        (Unit_models.Zoo.dense_workloads fg)
  in
  (g, jobs)

let digest (v : Executor.value) = Ndarray.digest v.Executor.arr

let pin () =
  let g, _ = build () in
  digest (Executor.run g ~input:(Executor.default_input g ~seed:Golden.pin_seed))

(* Level-parallel execution runs one level's nodes on several domains:
   apportion each [exec.level] span's wall time to the operator kinds
   in proportion to their span time inside it, so the rows sum to the
   level walls exactly; the inference wall outside any level is the
   unattributed residual. *)
let attribution ~total_ms =
  let spans = List.filter Obs.span_closed (Obs.spans ()) in
  let dur (s : Obs.span_record) = (s.Obs.sp_end -. s.Obs.sp_begin) *. 1e3 in
  let levels, nodes =
    List.partition (fun (s : Obs.span_record) -> s.Obs.sp_name = "exec.level")
      (List.filter
         (fun (s : Obs.span_record) ->
           String.length s.Obs.sp_name > 5 && String.sub s.Obs.sp_name 0 5 = "exec.")
         spans)
  in
  let conv = ref 0.0 and weight = ref 0.0 and other = ref 0.0 in
  let level_ms = ref 0.0 and node_ms = ref 0.0 in
  List.iter
    (fun (l : Obs.span_record) ->
      let inside =
        List.filter
          (fun (s : Obs.span_record) ->
            s.Obs.sp_begin >= l.Obs.sp_begin && s.Obs.sp_end <= l.Obs.sp_end)
          nodes
      in
      let c = ref 0.0 and w = ref 0.0 and o = ref 0.0 in
      List.iter
        (fun (s : Obs.span_record) ->
          let r = match s.Obs.sp_name with "exec.conv2d" -> c | "exec.weight" -> w | _ -> o in
          r := !r +. dur s)
        inside;
      let sum = !c +. !w +. !o and wall = dur l in
      level_ms := !level_ms +. wall;
      node_ms := !node_ms +. sum;
      if sum = 0.0 then other := !other +. wall
      else begin
        conv := !conv +. (wall *. !c /. sum);
        weight := !weight +. (wall *. !w /. sum);
        other := !other +. (wall *. !o /. sum)
      end)
    levels;
  let unattributed = total_ms -. !level_ms in
  let share x = if total_ms = 0.0 then 0.0 else x /. total_ms in
  ( [ m "graph.level_parallelism" "ratio" (if !level_ms = 0.0 then 0.0 else !node_ms /. !level_ms);
      m "graph.exec.conv2d_share" "ratio" (share !conv);
      m "graph.exec.weight_share" "ratio" (share !weight);
      m "graph.exec.unattributed_share" "ratio" (share unattributed)
    ],
    total_ms,
    [ ("graph.exec.conv2d", !conv);
      ("graph.exec.weight", !weight);
      ("graph.exec.other", !other);
      ("graph.exec.unattributed (other)", unattributed)
    ] )

let prepare ~seed ~dir =
  let (g, jobs), build_s = timed build in
  let store_dir = Filename.concat dir "store" in
  rm_rf store_dir;
  let store, _ = Sharded.open_ store_dir in
  let pinned = Executor.default_input g ~seed:Golden.pin_seed
  and seeded = Executor.default_input g ~seed in
  Pipeline.set_tuning_store (Some (Sharded.pipeline_hooks store));
  Emit_cache.set_artifact_hooks (Some (Sharded.emit_hooks store));
  let report, compile_s =
    timed (fun () -> Obs.with_span "perfbench.warmup" (fun () -> Warmup.run jobs))
  in
  let problems =
    List.map
      (fun (f : Warmup.failure) ->
        Printf.sprintf "%s failed after %d attempts: %s" f.Warmup.f_key f.Warmup.f_attempts f.Warmup.f_error)
      report.Warmup.rp_failures
    @ List.map (fun (key, why) -> Printf.sprintf "%s skipped: %s" key why) report.Warmup.rp_skipped
    @
    if report.Warmup.rp_compiled = List.length jobs then []
    else [ Printf.sprintf "%d of %d jobs compiled" report.Warmup.rp_compiled (List.length jobs) ]
  in
  check ~what:("resnet18 kernel warm-up: " ^ String.concat "; " problems) (problems = []);
  (* Warmup degrades a failed emission to a tuning record only; here that
     would silently time a different engine *)
  check ~what:"resnet18 kernels emitted natively" (Emit_cache.last_fallback () = None);
  let seeded_digest = ref None and ok_before = ref false in
  let loop ~seconds ~min_rounds =
    let t0 = now () in
    let ops = ref [] and i = ref 0 in
    while !i < min_rounds || now () -. t0 < seconds do
      let pin = !i = 0 in
      (match
         attempt ~what:"resnet18 inference" (fun () ->
             timed (fun () ->
                 Obs.with_span "perfbench.infer" (fun () ->
                     Executor.run g ~input:(if pin then pinned else seeded))))
       with
       | None -> ()
       | Some (v, dt) ->
         let d = digest v in
         let ok =
           if pin then String.equal d Golden.model
           else
             match !seeded_digest with
             | None ->
               seeded_digest := Some d;
               true
             | Some d0 -> String.equal d d0
         in
         if not ok then
           fail
             (Printf.sprintf "resnet18 output digest %s (%s)" d
                (if pin then "pinned input" else "differs from this run's first"));
         ops := { cls = Some "infer"; key = "resnet18"; ms = dt *. 1e3; warm = !ok_before } :: !ops;
         if ok then ok_before := true);
      incr i
    done;
    List.rev !ops
  in
  let finish () =
    Pipeline.set_tuning_store None;
    Emit_cache.set_artifact_hooks None
  in
  let report ops =
    [ m "infer_s" "s" (median (List.map (fun o -> o.ms /. 1e3) ops));
      m "graph.build_ms" "ms" (build_s *. 1e3);
      m "inferences" "count" (float_of_int (List.length ops))
    ]
  in
  let layers ops ~wall_s:_ = attribution ~total_ms:(List.fold_left (fun a o -> a +. o.ms) 0.0 ops) in
  { compile_s; loop; finish; report; layers }
