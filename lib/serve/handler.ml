(* The daemon's request handler: protocol requests in, pipeline calls
   out.  See handler.mli. *)

module Json = Unit_obs.Json
module Obs = Unit_obs.Obs
module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload
module Warmup = Unit_store.Warmup
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Ndarray = Unit_codegen.Ndarray
module Spec = Unit_machine.Spec
module Singleflight = Unit_codegen.Singleflight

let c_shared = Obs.counter "serve.tensorize.shared"
let shared_flights = Atomic.make 0

(* One process-wide flight table: the pipeline memo compiles outside its
   lock, so without this two worker domains missing on the same workload
   would both run the tuner sweep — the duplicate tune the soak test
   forbids.  The key deliberately omits the engine: engines share one
   tensorization. *)
let flight = Singleflight.create ()

let spec_of_target = function
  | Warmup.X86 -> Spec.cascadelake
  | Warmup.Arm -> Spec.graviton2

let conv_of_workload = function
  | Protocol.Conv wl -> wl
  | Protocol.Table1 i -> Unit_models.Table1.workloads.(i - 1)
  | Protocol.Dense _ -> invalid_arg "not a convolution workload"

let compiled_for ~target workload =
  let tag = Warmup.target_to_string target in
  let key = tag ^ "/" ^ Protocol.workload_name workload in
  let compile () =
    match (target, workload) with
    | Warmup.X86, (Protocol.Conv _ | Protocol.Table1 _) ->
      Pipeline.conv_compiled_x86 (conv_of_workload workload)
    | Warmup.Arm, (Protocol.Conv _ | Protocol.Table1 _) ->
      Pipeline.conv_compiled_arm (conv_of_workload workload)
    | Warmup.X86, Protocol.Dense wl -> Pipeline.dense_compiled_x86 wl
    | Warmup.Arm, Protocol.Dense wl -> Pipeline.dense_compiled_arm wl
  in
  let compiled, shared = Singleflight.with_key flight key compile in
  if shared then begin
    Atomic.incr shared_flights;
    Obs.incr c_shared
  end;
  compiled

let shared_tensorize_count () = Atomic.get shared_flights

let tune_result ~target ~engine workload (c : Pipeline.compiled) =
  let spec = spec_of_target target in
  let tuned = c.Pipeline.c_tuned in
  let est = tuned.Cpu_tuner.t_estimate in
  Json.Obj
    [ ("workload", Json.Str (Protocol.workload_name workload));
      ("target", Json.Str (Warmup.target_to_string target));
      ("engine", Json.Str (Pipeline.engine_to_string engine));
      ( "signature",
        Json.Str (Pipeline.workload_signature ~spec c.Pipeline.c_op c.Pipeline.c_intrin) );
      ("isa", Json.Str c.Pipeline.c_intrin.Unit_isa.Intrin.name);
      ("config", Cpu_tuner.config_to_json tuned.Cpu_tuner.t_config);
      ("cycles", Json.Num est.Unit_machine.Cpu_model.est_cycles);
      ("seconds", Json.Num est.Unit_machine.Cpu_model.est_seconds)
    ]

(* Execute the tensorized kernel on the canonical deterministic inputs
   (seed 1, like `unitc run`) and return the output's content digest —
   the bit-identity witness the soak harness compares against direct
   pipeline runs. *)
let run_result ~target ~engine workload (c : Pipeline.compiled) =
  let spec = spec_of_target target in
  let op = c.Pipeline.c_op in
  let signature = Pipeline.workload_signature ~spec op c.Pipeline.c_intrin in
  let inputs =
    List.map
      (fun t -> (t, Ndarray.random_for_tensor ~seed:1 t))
      (Unit_dsl.Op.inputs op)
  in
  let out = Ndarray.of_tensor_zeros op.Unit_dsl.Op.output in
  Pipeline.run_func ~engine
    ~signature:("tensorized|" ^ signature)
    c.Pipeline.c_tuned.Cpu_tuner.t_func
    ~bindings:((op.Unit_dsl.Op.output, out) :: inputs);
  Json.Obj
    [ ("workload", Json.Str (Protocol.workload_name workload));
      ("target", Json.Str (Warmup.target_to_string target));
      ("engine", Json.Str (Pipeline.engine_to_string engine));
      ("digest", Json.Str (Protocol.digest_ndarray out));
      ("elements", Json.Num (float_of_int (Ndarray.num_elements out)))
    ]

let explain_target = function
  | Warmup.X86 -> Unit_core.Explain.X86
  | Warmup.Arm -> Unit_core.Explain.Arm

let handle = function
  | Protocol.Ping -> Json.Obj [ ("pong", Json.Bool true) ]
  | Protocol.Stats ->
    (* normally answered inline by the server; kept total for direct use *)
    Obs.stats_json ()
  | Protocol.Shutdown -> Json.Obj [ ("draining", Json.Bool true) ]
  | Protocol.Metrics ->
    (* normally answered inline by the server; kept total for direct use *)
    Json.Obj
      [ ("content_type", Json.Str Unit_obs.Metrics.content_type);
        ("body", Json.Str (Unit_obs.Metrics.render ()))
      ]
  | Protocol.Trace { id } ->
    (match Obs.trace_chrome id with
     | Some doc -> doc
     | None ->
       invalid_arg
         (Printf.sprintf "unknown trace_id %S (never begun, or evicted)" id))
  | Protocol.Flight _ ->
    (* only the server can answer: the flight recorder is per-server
       state the handler has no handle on *)
    invalid_arg "flight is answered inline by the server"
  | Protocol.Load_isa { path } ->
    (* normally answered inline by the server; kept total for direct use *)
    (match Unit_isadsl.Loader.load_file path with
     | Ok info ->
       Json.Obj
         [ ("pack", Json.Str info.Unit_isadsl.Loader.pk_source);
           ( "loaded",
             Json.Num
               (float_of_int
                  (List.length info.Unit_isadsl.Loader.pk_instructions)) )
         ]
     | Error ds ->
       invalid_arg
         (String.concat "; " (List.map Unit_tir.Diag.to_string ds)))
  | Protocol.Tune { target; engine; workload } ->
    tune_result ~target ~engine workload (compiled_for ~target workload)
  | Protocol.Run { target; engine; workload } ->
    run_result ~target ~engine workload (compiled_for ~target workload)
  | Protocol.Explain { target; workload } ->
    (match workload with
     | Protocol.Dense _ ->
       invalid_arg "explain covers convolution workloads only"
     | Protocol.Conv _ | Protocol.Table1 _ ->
       Unit_core.Explain.to_json
         (Unit_core.Explain.conv (explain_target target)
            (conv_of_workload workload)))
