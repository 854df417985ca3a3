(* perfbench: the repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 --dir D
                   [--t0 T] [--setup-samples S1:C1:F1,S2:C2:F2,...]
     perfbench.exe --workload W --seed N --setup-only --dir D [--t0 T]
     perfbench.exe --selftest --dir D
     perfbench.exe --pin

   One run is one workload in one fresh process (so the pipeline's kernel
   cache, the emit memo and Dynlinked kernels all start cold): set up
   once, ending with the cold compile of the workload's kernels, time
   operations for S seconds, check every output, and print a text report
   whose last line is the JSON result.  --setup-only stops after the
   set-up and prints its time, its cold compile's and its number of
   failed checks as "S:C:F"; the driver script runs several such
   processes before a measured run and hands their figures over with
   --setup-samples, so [setup_s] is the median of several cold set-ups,
   each from process start, and each of them is one more attempt in the
   result.  With --trace 0 the result holds the
   end-to-end metrics; with --trace 1 the timed phase runs half untraced
   and half traced, and the result holds the per-layer metrics read from
   the program's own spans, counters and flight recorder.  D receives
   everything the run writes except the Chrome trace. *)

open Common

(* links the built-in instruction definitions; their registration runs
   when the libraries initialise, inside [setup_s] (see [process_t0]) *)
let () = Unit_isa.Defs.ensure_registered ()

let workloads = [ "model-resnet18"; "kernels"; "serve-mix" ]

(* The headline of a set of timed operations: per headline class, the
   median / p99 (nearest rank) of its samples, combined across classes
   with the geometric mean.  Warm p99 uses the samples whose key had
   already completed ok; a class without any falls back to all. *)
let headline ops =
  let classes = List.sort_uniq compare (List.filter_map (fun o -> o.cls) ops) in
  let samples c ~warm =
    let all = List.filter (fun o -> o.cls = Some c) ops in
    let w = List.filter (fun o -> o.warm) all in
    List.map (fun o -> o.ms) (if warm && w <> [] then w else all)
  in
  let across f = geomean (List.map f classes) in
  ( across (fun c -> median (samples c ~warm:false)),
    across (fun c -> percentile (samples c ~warm:false) 99.0),
    across (fun c -> percentile (samples c ~warm:true) 99.0) )

let end_to_end ~setup_s ops ~wall_s =
  let p50, p99, warm_p99 = headline ops in
  [ m "setup_s" "s" setup_s;
    m "latency_p50_ms" "ms" p50;
    m "latency_p99_ms" "ms" p99;
    m "warm_latency_p99_ms" "ms" warm_p99;
    m "throughput_per_s" "1/s" (float_of_int (List.length ops) /. wall_s);
    m "peak_rss_mb" "MB" (peak_rss_mb ())
  ]

(* ---- metric names and units come from BENCHMARK.json *)

let declared_metrics section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let json =
    match Unit_obs.Json.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let str k j = Option.bind (Unit_obs.Json.member k j) Unit_obs.Json.to_str in
  Option.value ~default:[] (Option.bind (Unit_obs.Json.member section json) Unit_obs.Json.to_list)
  |> List.filter_map (fun j ->
         match (str "name" j, str "unit" j) with Some n, Some u -> Some (n, u) | _ -> None)

(* Every metric the run measured must be declared; a declared per-layer
   metric the workload did not measure is a layer it bypasses, reported
   as 0. *)
let conform ~section ~absent_is_zero measured =
  let declared = declared_metrics section in
  List.iter
    (fun x ->
      match List.assoc_opt x.name declared with
      | Some u when u = x.unit_ -> ()
      | _ -> failwith (Printf.sprintf "%s: %s [%s] is not declared in BENCHMARK.json" section x.name x.unit_))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None when absent_is_zero -> m name unit_ 0.0
      | None -> failwith (Printf.sprintf "%s: %s was not measured" section name))
    declared

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith (Printf.sprintf "non-finite metric value %f" x)

let result_line metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (Atomic.get failed = 0) (Atomic.get attempted) (Atomic.get failed)
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_)
          metrics))

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-44s %16.6f %s\n" x.name x.value x.unit_) ms

let print_table title ~total rows =
  Printf.printf "%s (total %.3f ms)\n" title total;
  List.iter
    (fun (label, ms) ->
      Printf.printf "  %-56s %12.3f ms %6.1f%%\n" label ms
        (if total = 0.0 then 0.0 else 100.0 *. ms /. total))
    rows;
  Printf.printf "  %-56s %12.3f ms\n" "sum" (List.fold_left (fun a (_, x) -> a +. x) 0.0 rows)

let prepare workload ~seed ~dir =
  match workload with
  | "model-resnet18" -> Model.prepare ~seed ~dir
  | "kernels" -> Kernels.prepare ~seed ()
  | "serve-mix" -> Serve_mix.prepare ~seed ~dir
  | w -> failwith ("unknown workload " ^ w ^ " (" ^ String.concat ", " workloads ^ ")")

(* The set-up of this process, from its start to the end of its cold
   compile, as (setup_s, compile_s). *)
let set_up workload ~seed ~dir =
  let p = prepare workload ~seed ~dir in
  (p, (now () -. !process_t0, p.compile_s))

let setup_only ~workload ~seed ~dir =
  let p, (setup_s, compile_s) = set_up workload ~seed ~dir in
  p.finish ();
  Printf.printf "%.17g:%.17g:%d\n" setup_s compile_s (Atomic.get failed)

let run ~workload ~seed ~seconds ~trace ~dir ~setup_samples =
  Printf.printf "perfbench %s: seed %d, %.0f s, trace %d, %d host cpus\n%!" workload seed seconds
    (if trace then 1 else 0)
    (Domain.recommended_domain_count ());
  Obs.set_enabled trace;
  let p, own = set_up workload ~seed ~dir in
  let compile_rows = compile_table () in
  let timed_loop ~seconds ~min_rounds = timed (fun () -> p.loop ~seconds ~min_rounds) in
  if not trace then begin
    let ops, wall_s = timed_loop ~seconds ~min_rounds:2 in
    p.finish ();
    List.iteri
      (fun i (_, _, f) ->
        check ~what:(Printf.sprintf "set-up process %d: %d failed checks (see its stderr)" (i + 1) f) (f = 0))
      setup_samples;
    let samples = own :: List.map (fun (s, c, _) -> (s, c)) setup_samples in
    let setup_s = median (List.map fst samples) and compile_s = median (List.map snd samples) in
    let e2e = end_to_end ~setup_s ops ~wall_s in
    print_metrics "end-to-end (tracing off):" e2e;
    Printf.printf "  %-44s %16.6f ratio (%d failed / %d attempted)\n" "failed_ratio"
      (ratio (Atomic.get failed) (Atomic.get attempted))
      (Atomic.get failed) (Atomic.get attempted);
    Printf.printf "  (%d timed operations in %.3f s)\n" (List.length ops) wall_s;
    Printf.printf "  (setup_s and compile_s: medians over %d cold set-ups, this process's first: %s)\n"
      (List.length samples)
      (String.concat " " (List.map (fun (s, c) -> Printf.sprintf "%.3f/%.3f s" s c) samples));
    print_metrics "workload figures:" (m "compile_s" "s" compile_s :: p.report ops);
    print_endline (result_line (conform ~section:"end_to_end" ~absent_is_zero:false e2e))
  end
  else begin
    (* half untraced, half traced: the ratio of the two headlines is the
       tracing overhead *)
    Obs.set_enabled false;
    let plain, _ = timed_loop ~seconds:(seconds /. 2.0) ~min_rounds:1 in
    Obs.set_enabled true;
    let traced, wall_s = timed_loop ~seconds:(seconds /. 2.0) ~min_rounds:1 in
    Obs.set_enabled false;
    p.finish ();
    let p50 ops = let x, _, _ = headline ops in x in
    let own, total_ms, table = p.layers traced ~wall_s in
    let layers =
      (m "compile_s" "s" p.compile_s :: common_layers ()) @ own
      @ [ m "obs.overhead_ratio" "ratio" (if p50 plain = 0.0 then 0.0 else p50 traced /. p50 plain) ]
    in
    print_table "compile phase: span time per stage, summed across domains"
      ~total:(p.compile_s *. 1e3) compile_rows;
    print_table "timed phase (traced half): measured total and its attribution" ~total:total_ms table;
    print_metrics "workload figures (whole run):" (p.report (plain @ traced));
    print_metrics "per-layer (traced run):" layers;
    mkdir_p ".perfbench/traces";
    let trace_file = Printf.sprintf ".perfbench/traces/%s-seed%d.json" workload seed in
    Obs.write_chrome_trace trace_file;
    Printf.printf "chrome trace: %s\n" trace_file;
    print_endline (result_line (conform ~section:"per_layer" ~absent_is_zero:true layers))
  end

(* A flipped golden digest must surface as a failed operation, while the
   true one passes: run the classifier kernel's rows once each way. *)
let selftest () =
  let fc = List.filter (fun (n, _) -> n = "r18fc") Kernels.set in
  let once golden =
    Atomic.set attempted 0;
    Atomic.set failed 0;
    let p = Kernels.prepare ~set:fc ~golden ~seed:Golden.pin_seed () in
    ignore (p.loop ~seconds:0.0 ~min_rounds:1);
    Atomic.get failed
  in
  let good = once Golden.kernels in
  let flipped = once (List.map (fun (k, d) -> (k, Golden.flip d)) Golden.kernels) in
  Printf.printf "selftest: true digests -> %d failed; flipped digest -> %d failed\n" good flipped;
  if good = 0 && flipped > 0 then print_endline "selftest: PASS (a wrong golden digest is reported as a failure)"
  else begin
    print_endline "selftest: FAIL";
    exit 1
  end

let pin () =
  Printf.printf "let model = %S\n" (Model.pin ());
  Printf.printf "let kernels = [ %s ]\n"
    (String.concat "; " (List.map (fun (k, d) -> Printf.sprintf "(%S, %S)" k d) (Kernels.pin ())))

(* "S1:C1:F1,S2:C2:F2,...", as --setup-only prints them *)
let parse_samples text =
  List.map
    (fun sample ->
      let bad () = raise (Arg.Bad ("bad set-up sample " ^ sample)) in
      match String.split_on_char ':' sample with
      | [ s; c; f ] ->
        (match (float_of_string_opt s, float_of_string_opt c, int_of_string_opt f) with
         | Some s, Some c, Some f -> (s, c, f)
         | _ -> bad ())
      | _ -> bad ())
    (List.filter (( <> ) "") (String.split_on_char ',' text))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let dir = ref "" and mode = ref `Run and setup_samples = ref [] in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  input and request-stream seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--dir", Arg.Set_string dir, "D  scratch directory for stores, sockets, compiler output");
      ("--t0", Arg.Float (fun t -> process_t0 := t), "T  when the process was launched, on the monotonic clock");
      ( "--setup-samples",
        Arg.String (fun s -> setup_samples := parse_samples s),
        "S:C:F,...  set-up and cold-compile seconds and failed checks of earlier --setup-only processes" );
      ("--setup-only", Arg.Unit (fun () -> mode := `Setup_only), " set up, print \"setup_s:compile_s:failed\" and stop");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " check that a wrong golden digest fails");
      ("--pin", Arg.Unit (fun () -> mode := `Pin), " print the golden digests of this commit")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --dir D";
  let need_run_dir () =
    if !dir = "" || !workload = "" then begin
      prerr_endline "perfbench: --workload and --dir are required";
      exit 2
    end;
    mkdir_p !dir
  in
  match !mode with
  | `Pin -> pin ()
  | `Selftest -> selftest ()
  | `Setup_only ->
    need_run_dir ();
    setup_only ~workload:!workload ~seed:!seed ~dir:!dir
  | `Run ->
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace must be 0 or 1";
      exit 2
    end;
    need_run_dir ();
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir:!dir
      ~setup_samples:!setup_samples
