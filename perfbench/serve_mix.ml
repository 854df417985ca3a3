(* serve-mix: a closed loop of two clients talking the daemon's wire
   protocol over a Unix socket to an in-process [Server] (two worker
   domains, fresh sharded store).  The callers are compilers waiting for
   replies, hence closed.  A seeded stream over a hot set of small
   conv/dense/Table I workloads mixes [tune] and [run] on the closure and
   emitted engines; about one request in twenty is the first touch of a
   never-seen conv shape on the emitted engine — a cold tune, a store
   append and an ocamlopt — so cold writes run beside warm reads. *)

open Common
module Protocol = Unit_serve.Protocol
module Server = Unit_serve.Server
module Flight = Unit_serve.Flight
module Wire = Unit_serve.Wire
module Json = Unit_obs.Json
module Pipeline = Unit_core.Pipeline
module Warmup = Unit_store.Warmup
module Sharded = Unit_store.Sharded
module Emit_cache = Unit_codegen.Emit_cache
module Workload = Unit_graph.Workload
module Cpu_tuner = Unit_rewriter.Cpu_tuner

let clients = 2
let domains = 2

(* A run never sends more: the whole run then fits the 4096-entry flight
   ring, so every request's queue/run split is in the window. *)
let max_requests = 4000

let conv ?(kernel = 3) ?(padding = 1) c hw k =
  Protocol.Conv { Workload.c; h = hw; w = hw; k; kernel; stride = 1; padding; groups = 1 }

(* Executable hot set: small enough that a warm run costs milliseconds. *)
let hot_runs =
  [ conv 16 6 16; conv 16 6 32; conv 32 6 16; conv 8 8 16;
    Protocol.Dense { Workload.d_k = 128; d_units = 64 } ]

(* Tuning is cost-model work only, so Table I's full-size shapes stay
   cheap here. *)
let hot_tunes = List.init 16 (fun i -> Protocol.Table1 (i + 1)) @ hot_runs

(* Never-seen shapes for first touches (320, enough for every block of
   a full stream), disjoint from the hot set. *)
let cold_pool =
  List.concat_map
    (fun c ->
      List.concat_map
        (fun hw ->
          List.concat_map
            (fun k ->
              List.concat_map
                (fun kernel -> List.map (fun padding -> conv ~kernel ~padding c hw k) [ 0; 1 ])
                [ 1; 3 ])
            [ 16; 32; 48; 64 ])
        [ 3; 4; 5; 7 ])
    [ 8; 16; 24; 40; 48 ]
  |> List.filter (fun w -> not (List.mem w hot_runs))

let target = Warmup.X86

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The request stream, in blocks of 40: 8 tunes (20%), 20 emitted runs
   (50%), 10 closure-engine runs (25%) and 2 first touches of a cold
   shape (5%).  Fixed proportions keep the median inside the emitted-run
   mode and p99 inside the first-touch mode, so neither jumps between
   modes from seed to seed.  The seed picks the order within each block,
   which Table I / hot workloads are tuned, and the cold shapes. *)
let stream ~seed =
  let rng = Random.State.make [| seed; 0x5e12e |] in
  let cold = ref (shuffle rng cold_pool) in
  let tunes = Array.of_list (shuffle rng hot_tunes) in
  let next_tune = ref 0 in
  let block () =
    let tune i =
      let workload = tunes.(!next_tune mod Array.length tunes) in
      incr next_tune;
      (false, Protocol.Tune { target; engine = (if i mod 2 = 0 then Pipeline.Compiled else Pipeline.Emitted); workload })
    in
    let runs engine copies =
      List.concat_map (fun workload -> List.init copies (fun _ -> (false, Protocol.Run { target; engine; workload }))) hot_runs
    in
    let first_touch _ =
      match !cold with
      | workload :: rest ->
        cold := rest;
        (true, Protocol.Run { target; engine = Pipeline.Emitted; workload })
      | [] -> (false, Protocol.Run { target; engine = Pipeline.Emitted; workload = List.hd hot_runs })
    in
    shuffle rng
      (List.init 8 tune @ runs Pipeline.Emitted 4 @ runs Pipeline.Compiled 2 @ List.init 2 first_touch)
  in
  Array.of_list (List.concat (List.init (max_requests / 40) (fun _ -> block ())))

(* Every hot key once: the warm-up that makes the timed stream warm. *)
let hot_keys =
  List.concat_map
    (fun engine ->
      List.map (fun workload -> Protocol.Tune { target; engine; workload }) hot_tunes
      @ List.map (fun workload -> Protocol.Run { target; engine; workload }) hot_runs)
    [ Pipeline.Compiled; Pipeline.Emitted ]

(* ---- the client side of the wire protocol *)

let call fd ~trace_id req =
  let fields = match Protocol.request_to_json req with Json.Obj f -> f | _ -> [] in
  Wire.write_frame fd (Json.to_string (Json.Obj (fields @ [ ("trace_id", Json.Str trace_id) ])));
  match Wire.read_frame fd with
  | Error e -> failwith ("wire: " ^ Wire.error_to_string e)
  | Ok payload ->
    (match Result.bind (Json.parse payload) Protocol.response_of_json with
     | Ok r -> r
     | Error e -> failwith ("bad response: " ^ e))

(* ---- one daemon instance: store, server, socket, acceptor, clients *)

type daemon = {
  store : Sharded.t;
  server : Server.t;
  listen_fd : Unix.file_descr;
  socket : string;
  stop : bool Atomic.t;
  acceptor : Thread.t;
  fds : Unix.file_descr array;  (** one connection per client *)
}

let accept_loop server listen_fd stop =
  let conns = ref [] in
  while not (Atomic.get stop) do
    match Unix.select [ listen_fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ ->
      let fd, _ = Unix.accept listen_fd in
      conns :=
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Server.serve_connection server fd))
          ()
        :: !conns
  done;
  List.iter Thread.join !conns

let start ~dir =
  mkdir_p dir;
  let store_dir = Filename.concat dir "store" in
  let store, _ = Sharded.open_ store_dir in
  Pipeline.set_tuning_store (Some (Sharded.pipeline_hooks store));
  Emit_cache.set_artifact_hooks (Some (Sharded.emit_hooks store));
  let server = Server.create { Server.domains; queue_cap = 64; retries = 1 } in
  (* relative to the checkout: an absolute path may exceed sun_path *)
  let socket = Filename.concat dir "unitd.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 8;
  let stop = Atomic.make false in
  let acceptor = Thread.create (fun () -> accept_loop server listen_fd stop) () in
  let fds =
    Array.init clients (fun i ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        (match call fd ~trace_id:(Printf.sprintf "ping-%d" i) Protocol.Ping with
         | Protocol.Result _ -> ()
         | Protocol.Failure (_, msg) -> failwith ("ping: " ^ msg));
        fd)
  in
  { store; server; listen_fd; socket; stop; acceptor; fds }

let stop d =
  Array.iter Unix.close d.fds;
  Atomic.set d.stop true;
  Thread.join d.acceptor;
  Unix.close d.listen_fd;
  Sys.remove d.socket;
  Server.drain d.server;
  Pipeline.set_tuning_store None;
  Emit_cache.set_artifact_hooks None

(* ---- the workload *)

type sent = {
  s_trace : string;
  s_cold : bool;
  s_ms : float;
  s_t0 : float;
}

let member name j = Option.bind (Json.member name j) Json.to_str

let prepare ~seed ~dir =
  let d = start ~dir in
  let requests = stream ~seed in
  let ok_keys = Hashtbl.create 512 and lock = Mutex.create () in
  let digests : (string, Protocol.workload * string list) Hashtbl.t = Hashtbl.create 256 in
  let sent = ref [] in
  let next_id = Atomic.make 0 in
  (* one request from client [c]; returns the timed op *)
  let request c ~cold req =
    let key = Option.value (Protocol.coalesce_key req) ~default:(Protocol.kind_name req) in
    let trace_id = Printf.sprintf "pb-%d" (Atomic.fetch_and_add next_id 1) in
    Mutex.lock lock;
    let warm = Hashtbl.mem ok_keys key in
    Mutex.unlock lock;
    let t0 = now () in
    let response = attempt ~what:("request " ^ key) (fun () -> call d.fds.(c) ~trace_id req) in
    let ms = (now () -. t0) *. 1e3 in
    let ok =
      match response with
      | None -> false
      | Some (Protocol.Failure (code, msg)) ->
        fail (Printf.sprintf "%s: %s %s" key (Protocol.code_to_string code) msg);
        false
      | Some (Protocol.Result j) ->
        (match req with
         | Protocol.Run { workload; _ } ->
           (match member "digest" j with
            | Some dg ->
              Mutex.lock lock;
              let name = Protocol.workload_name workload in
              let prev = match Hashtbl.find_opt digests name with Some (_, l) -> l | None -> [] in
              Hashtbl.replace digests name (workload, dg :: prev);
              Mutex.unlock lock;
              true
            | None ->
              fail (key ^ ": run response without a digest");
              false)
         | _ -> true)
    in
    Mutex.lock lock;
    if ok then Hashtbl.replace ok_keys key ();
    sent := { s_trace = trace_id; s_cold = cold; s_ms = ms; s_t0 = t0 } :: !sent;
    Mutex.unlock lock;
    { cls = Some "request"; key; ms; warm }
  in
  (* both clients draw from one queue of requests until it or the time
     runs out *)
  let drive ~seconds queue =
    let cursor = Atomic.make 0 and ops = ref [] and ops_lock = Mutex.create () in
    let t0 = now () in
    let client c () =
      let rec go () =
        if now () -. t0 < seconds then begin
          let i = Atomic.fetch_and_add cursor 1 in
          if i < Array.length queue then begin
            let cold, req = queue.(i) in
            let op = request c ~cold req in
            Mutex.lock ops_lock;
            ops := op :: !ops;
            Mutex.unlock ops_lock;
            go ()
          end
        end
      in
      go ()
    in
    List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
    (Atomic.get cursor, List.rev !ops)
  in
  let (), compile_s =
    timed (fun () ->
        Obs.with_span "perfbench.warmup" @@ fun () ->
        ignore (drive ~seconds:infinity (Array.of_list (List.map (fun r -> (false, r)) hot_keys))))
  in
  sent := [];
  let cursor = ref 0 and window = ref (0.0, 0.0) in
  let loop ~seconds ~min_rounds:_ =
    let t0 = now () in
    let taken, ops =
      drive ~seconds (Array.sub requests !cursor (Array.length requests - !cursor))
    in
    cursor := min (Array.length requests) (!cursor + taken);
    window := (t0, now ());
    ops
  in
  let flight = ref [] and duplicate_tunes = ref 0 and appends = ref 0 and stats = ref [] in
  let finish () =
    flight := Flight.entries (Server.flight d.server);
    stats := Server.stats_fields d.server;
    let st = Sharded.stats d.store in
    appends := st.Unit_store.Store.st_appends;
    (* every tuning record and every artifact is appended once per key;
       a workload tuned twice appends a second record under its key *)
    duplicate_tunes :=
      st.Unit_store.Store.st_appends - st.Unit_store.Store.st_records
      - st.Unit_store.Store.st_artifacts;
    stop d;
    (* a fallback would silently serve "emitted" requests from closures *)
    Option.iter
      (fun dg -> fail ("emitted engine fell back: " ^ Unit_tir.Diag.to_string dg))
      (Emit_cache.last_fallback ());
    (* bit-identity: replay every executed workload directly through the
       pipeline, on the inputs the handler uses *)
    Obs.with_span "perfbench.replay" @@ fun () ->
    Hashtbl.iter
      (fun name (workload, seen) ->
        let c =
          match workload with
          | Protocol.Conv wl -> Pipeline.conv_compiled_x86 wl
          | Protocol.Dense wl -> Pipeline.dense_compiled_x86 wl
          | Protocol.Table1 i -> Pipeline.conv_compiled_x86 Unit_models.Table1.workloads.(i - 1)
        in
        let op = c.Pipeline.c_op in
        let out = Ndarray.of_tensor_zeros op.Unit_dsl.Op.output in
        Pipeline.run_func ~engine:Pipeline.Compiled
          ~signature:
            ("tensorized|" ^ Pipeline.workload_signature ~spec:Unit_machine.Spec.cascadelake op c.Pipeline.c_intrin)
          c.Pipeline.c_tuned.Cpu_tuner.t_func
          ~bindings:
            ((op.Unit_dsl.Op.output, out)
            :: List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:1 t)) (Unit_dsl.Op.inputs op));
        let direct = Protocol.digest_ndarray out in
        List.iter
          (fun dg ->
            if not (String.equal dg direct) then
              fail (Printf.sprintf "%s: daemon digest %s, direct pipeline %s" name dg direct))
          seen)
      digests
  in
  let by_trace () =
    let t = Hashtbl.create 4096 in
    List.iter (fun (e : Flight.entry) -> Hashtbl.replace t e.Flight.fl_trace e) !flight;
    t
  in
  let field name = float_of_int (Option.value (List.assoc_opt name !stats) ~default:0) in
  let report ops =
    let lat = List.map (fun o -> o.ms) ops in
    let warm = List.filter_map (fun o -> if o.warm then Some o.ms else None) ops in
    let fl = by_trace () in
    let mine = List.filter_map (fun s -> Option.map (fun e -> (s, e)) (Hashtbl.find_opt fl s.s_trace)) !sent in
    let q = List.map (fun (_, e) -> e.Flight.fl_queue_us /. 1e3) mine
    and r = List.map (fun (_, e) -> e.Flight.fl_run_us /. 1e3) mine
    and w = List.map (fun (s, e) -> s.s_ms -. (Flight.total_us e /. 1e3)) mine
    and cold = List.filter_map (fun s -> if s.s_cold then Some s.s_ms else None) !sent in
    let t0, t1 = !window in
    let last = List.filter (fun s -> s.s_t0 >= t0 && s.s_t0 <= t1) !sent in
    let hits = List.length (List.filter (fun (_, e) -> e.Flight.fl_store_hit) mine) in
    [ m "throughput_rps" "req/s" (float_of_int (List.length last) /. (t1 -. t0));
      m "requests" "count" (float_of_int (List.length lat));
      m "requests_beyond_p99" "count" (float_of_int (beyond (List.length lat) 99.0));
      m "warm_requests" "count" (float_of_int (List.length warm));
      m "cold_requests" "count" (float_of_int (List.length cold));
      m "serve.queue_ms.p50" "ms" (percentile q 50.0);
      m "serve.queue_ms.p99" "ms" (percentile q 99.0);
      m "serve.run_ms.p50" "ms" (percentile r 50.0);
      m "serve.run_ms.p99" "ms" (percentile r 99.0);
      m "serve.wire_ms.p50" "ms" (percentile w 50.0);
      m "serve.cold_ms.p50" "ms" (percentile cold 50.0);
      m "store.flight_hit_ratio" "ratio" (ratio hits (List.length mine));
      m "store.appends" "count" (float_of_int !appends);
      m "serve.coalesced" "count" (field "coalesced");
      m "serve.overloaded" "count" (field "overloaded");
      m "serve.duplicate_tunes" "count" (float_of_int !duplicate_tunes)
    ]
  in
  let layers _ops ~wall_s:_ =
    let fl = by_trace () in
    let t0, t1 = !window in
    let mine =
      List.filter_map
        (fun s -> if s.s_t0 >= t0 && s.s_t0 <= t1 then Option.map (fun e -> (s, e)) (Hashtbl.find_opt fl s.s_trace) else None)
        !sent
    in
    let total = List.fold_left (fun a (s, _) -> a +. s.s_ms) 0.0 mine in
    let queue = List.fold_left (fun a (_, e) -> a +. (e.Flight.fl_queue_us /. 1e3)) 0.0 mine in
    let run = List.fold_left (fun a (_, e) -> a +. (e.Flight.fl_run_us /. 1e3)) 0.0 mine in
    let in_window =
      List.filter
        (fun (s : Obs.span_record) -> Obs.span_closed s && s.Obs.sp_begin >= t0 && s.Obs.sp_end <= t1)
        (Obs.spans ())
    in
    let ms names =
      List.fold_left
        (fun a (s : Obs.span_record) ->
          if List.mem s.Obs.sp_name names then a +. ((s.Obs.sp_end -. s.Obs.sp_begin) *. 1e3) else a)
        0.0 in_window
    in
    let tensorize = ms [ "tensorize" ]
    and emit = ms [ "emit.render"; "emit.compile"; "emit.dynlink" ]
    and exec = ms [ "codegen.compile"; "codegen.run"; "emit.run" ] in
    let share x = if total = 0.0 then 0.0 else x /. total in
    ( [ m "serve.queue_share" "ratio" (share queue);
        m "serve.wire_share" "ratio" (share (total -. queue -. run));
        m "serve.coalesced" "count" (field "coalesced");
        m "serve.overloaded" "count" (field "overloaded");
        m "serve.duplicate_tunes" "count" (float_of_int !duplicate_tunes)
      ],
      total,
      [ ("serve.queue", queue);
        ("pipeline.tensorize", tensorize);
        ("codegen.emit (render+compile+dynlink)", emit);
        ("codegen.exec (closure compile+run, emitted run)", exec);
        ("other (wire, handler, store, coalesced overlap)", total -. queue -. tensorize -. emit -. exec)
      ] )
  in
  { compile_s; loop; finish; report; layers }
