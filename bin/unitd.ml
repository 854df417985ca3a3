(* unitd — the UNIT compilation-as-a-service daemon.

   `unitd serve` listens on a Unix-domain socket, frames requests with a
   4-byte length prefix + JSON (Unit_serve.Wire / Protocol), and serves
   them from a pool of OCaml 5 worker domains with a sharded tuning
   store, request coalescing, admission control and graceful drain.
   `unitd call` is the one-shot client; `unitd smoke` is the in-process
   cold+warm cycle the @serve-smoke alias lints. *)

open Cmdliner
module Json = Unit_obs.Json
module Obs = Unit_obs.Obs
module Wire = Unit_serve.Wire
module Protocol = Unit_serve.Protocol
module Server = Unit_serve.Server
module Sharded = Unit_store.Sharded
module Diag = Unit_tir.Diag
module Pipeline = Unit_core.Pipeline

let () = Unit_isa.Defs.ensure_registered ()

let enable_tracing ?trace_out () =
  Option.iter (Cli_io.check_writable "--trace-out") trace_out;
  Obs.set_enabled true;
  at_exit (fun () ->
      Obs.set_enabled false;
      Format.printf "%a@?" Obs.pp_summary ();
      Option.iter
        (fun path ->
          Cli_io.guard "--trace-out" (fun () -> Obs.write_chrome_trace path);
          Printf.printf "chrome trace written to %s\n%!" path)
        trace_out)

(* Install a sharded store for the daemon's lifetime: tuning records and
   emitted artifacts route by content address, so worker domains writing
   different shards never contend. *)
let with_sharded_store ?shards store_dir f =
  match store_dir with
  | None -> f ()
  | Some dir ->
    let store, diags = Cli_io.guard "--store" (fun () -> Sharded.open_ ?shards dir) in
    List.iter (fun d -> Printf.printf "%s\n%!" (Diag.to_string d)) diags;
    Pipeline.set_tuning_store (Some (Sharded.pipeline_hooks store));
    Unit_codegen.Emit_cache.set_artifact_hooks (Some (Sharded.emit_hooks store));
    Fun.protect
      ~finally:(fun () ->
        Pipeline.set_tuning_store None;
        Unit_codegen.Emit_cache.set_artifact_hooks None;
        Cli_io.guard "--store" (fun () -> Sharded.save store);
        let st = Sharded.stats store in
        Printf.printf
          "store %s: %d shard(s), %d record(s), %d artifact(s); this run: %d \
           disk hit(s), %d miss(es), %d append(s)\n%!"
          dir (Sharded.shard_count store) st.Unit_store.Store.st_records
          st.Unit_store.Store.st_artifacts st.Unit_store.Store.st_hits
          st.Unit_store.Store.st_misses st.Unit_store.Store.st_appends)
      f

(* ---------- serve ---------- *)

let serve socket_path domains queue_cap retries store shards trace trace_out
    packs =
  if trace || trace_out <> None then enable_tracing ?trace_out ();
  (* preload declarative instruction packs before the first worker can
     touch the registry; later loads arrive as load_isa requests *)
  (match Unit_isadsl.Loader.load_files packs with
   | Ok infos ->
     List.iter
       (fun (info : Unit_isadsl.Loader.pack_info) ->
         Printf.printf "unitd: loaded pack %s (%d instruction(s))\n%!"
           info.Unit_isadsl.Loader.pk_source
           (List.length info.Unit_isadsl.Loader.pk_instructions))
       infos
   | Error ds ->
     List.iter
       (fun d -> prerr_endline ("unitd: " ^ Unit_tir.Diag.to_string d))
       ds;
     exit 1);
  with_sharded_store ?shards store @@ fun () ->
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 64;
  let server = Server.create { Server.domains; queue_cap; retries } in
  let stop = ref false in
  let request_stop _ = stop := true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | _ -> ());
  Printf.printf "unitd: listening on %s (%d domain(s), queue %d)\n%!"
    socket_path domains queue_cap;
  (* accept loop: poll so a Shutdown request or a signal is noticed
     within 200 ms; each connection gets its own (blocking) thread *)
  while not (!stop || Server.draining server) do
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
      let fd, _ = Unix.accept listen_fd in
      ignore
        (Thread.create
           (fun () ->
             Fun.protect
               ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
               (fun () -> Server.serve_connection server fd))
           ())
  done;
  Printf.printf "unitd: draining...\n%!";
  Unix.close listen_fd;
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  Server.drain server;
  Printf.printf "unitd: drained, bye\n%!"

(* ---------- call (one-shot client) ---------- *)

let call socket_path payload =
  (match Json.parse payload with
   | Ok _ -> ()
   | Error m ->
     prerr_endline ("unitd: request is not valid JSON: " ^ m);
     exit 1);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with Unix.Unix_error (e, _, _) ->
     prerr_endline
       (Printf.sprintf "unitd: cannot connect to %s: %s" socket_path
          (Unix.error_message e));
     exit 1);
  Wire.write_frame fd payload;
  (match Wire.read_frame fd with
   | Ok response -> print_endline response
   | Error e ->
     prerr_endline ("unitd: " ^ Wire.error_to_string e);
     exit 1);
  Unix.close fd

(* ---------- metrics (one-shot scrape client) ---------- *)

(* Scrape a running daemon's metrics and print the Prometheus text body
   (what an HTTP exporter would serve) — pipe it to a file or a
   pushgateway. *)
let metrics socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with Unix.Unix_error (e, _, _) ->
     prerr_endline
       (Printf.sprintf "unitd: cannot connect to %s: %s" socket_path
          (Unix.error_message e));
     exit 1);
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Wire.write_frame fd
    (Json.to_string (Protocol.request_to_json Protocol.Metrics));
  match Wire.read_frame fd with
  | Error e ->
    prerr_endline ("unitd: " ^ Wire.error_to_string e);
    exit 1
  | Ok payload ->
    (match
       Result.bind
         (Result.map_error (fun m -> "response is not JSON: " ^ m)
            (Json.parse payload))
         Protocol.response_of_json
     with
     | Error m ->
       prerr_endline ("unitd: " ^ m);
       exit 1
     | Ok (Protocol.Failure (code, m)) ->
       prerr_endline
         (Printf.sprintf "unitd: %s: %s" (Protocol.code_to_string code) m);
       exit 1
     | Ok (Protocol.Result r) ->
       (match Option.bind (Json.member "body" r) Json.to_str with
        | Some body -> print_string body
        | None ->
          prerr_endline "unitd: metrics response carries no body";
          exit 1))

(* ---------- smoke (in-process cold+warm cycle) ---------- *)

(* The @serve-smoke driver: N identical concurrent tune requests against
   a cold daemon must produce exactly one tuner sweep (the trace-lint
   asserts one tensorize.tune span and a positive serve.coalesced
   counter), then a store-warm cycle must tune nothing at all.  The
   fault hook holds the one in-flight job until every client has
   submitted, so the coalescing assertion is deterministic, not a race
   we usually win. *)
let smoke store_dir trace_out =
  enable_tracing ?trace_out ();
  let store_dir = Option.value ~default:"unitd_smoke_store" store_dir in
  if Sys.file_exists store_dir then begin
    let rm = Printf.sprintf "rm -rf %s" (Filename.quote store_dir) in
    if Sys.command rm <> 0 then failwith ("cannot clear " ^ store_dir)
  end;
  with_sharded_store (Some store_dir) @@ fun () ->
  let clients = 16 in
  let submitted = Atomic.make 0 in
  let fault ~key:_ ~attempt:_ =
    while Atomic.get submitted < clients do
      Thread.delay 0.001
    done
  in
  let server = Server.create ~fault { Server.default_config with domains = 4 } in
  let request =
    Protocol.Tune
      { target = Unit_store.Warmup.X86;
        engine = Pipeline.Compiled;
        workload =
          Protocol.Conv
            { Unit_graph.Workload.c = 32; h = 8; w = 8; k = 32; kernel = 3;
              stride = 1; padding = 1; groups = 1 }
      }
  in
  let fire () =
    let responses =
      Array.make clients (Protocol.Failure (Protocol.Internal, "unset"))
    in
    let threads =
      List.init clients (fun i ->
          Thread.create
            (fun () ->
              Atomic.incr submitted;
              responses.(i) <- Server.submit server request)
            ())
    in
    List.iter Thread.join threads;
    Array.iter
      (function
        | Protocol.Result _ -> ()
        | Protocol.Failure (code, m) ->
          failwith
            (Printf.sprintf "request failed: %s (%s)" m
               (Protocol.code_to_string code)))
      responses
  in
  Printf.printf "serve-smoke: cold burst (%d identical concurrent tunes)\n%!"
    clients;
  fire ();
  let fields = Server.stats_fields server in
  let field name = List.assoc name fields in
  if field "coalesced" < 1 then failwith "no request was coalesced";
  if field "overloaded" > 0 then failwith "admission control rejected the burst";
  (* warm cycle: drop the in-memory kernel cache so the second burst
     replays from the sharded store on disk — still zero tuner sweeps *)
  Pipeline.clear_cache ();
  Atomic.set submitted clients;
  Printf.printf "serve-smoke: warm burst (store replay)\n%!";
  fire ();
  (match Server.submit server Protocol.Shutdown with
   | Protocol.Result _ -> ()
   | Protocol.Failure _ -> failwith "shutdown refused");
  (match Server.submit server request with
   | Protocol.Failure (Protocol.Draining, _) -> ()
   | _ -> failwith "post-shutdown work was not refused as draining");
  Server.drain server;
  Printf.printf "serve-smoke: OK (%d requests, %d coalesced, 1 tune)\n%!"
    (field "requests" + 2) (field "coalesced")

(* ---------- metrics-smoke (in-process observability cycle) ---------- *)

(* The @metrics-smoke driver, all in-process:
   1. boot a daemon core with tracing on and fire a mixed burst (pings,
      stats, tunes, a run, an explain, one structured failure), with one
      tune under a client-supplied trace id;
   2. fetch that trace via a trace request and write the Chrome document
      for `unitc trace-lint --require-span-tagged`;
   3. scrape metrics and validate the exposition format;
   4. check the bucket-derived serve.latency_us p99 lands within one
      power-of-two bucket of the flight recorder's exact window p99. *)
let smoke_trace_id = "metricssmoke-trace"

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let metrics_smoke store_dir trace_file =
  Cli_io.check_writable "--trace-file" trace_file;
  Obs.set_enabled true;
  let store_dir = Option.value ~default:"unitd_metrics_store" store_dir in
  if Sys.file_exists store_dir then begin
    let rm = Printf.sprintf "rm -rf %s" (Filename.quote store_dir) in
    if Sys.command rm <> 0 then failwith ("cannot clear " ^ store_dir)
  end;
  with_sharded_store (Some store_dir) @@ fun () ->
  let server = Server.create { Server.default_config with domains = 2 } in
  let conv c =
    Protocol.Conv
      { Unit_graph.Workload.c; h = 8; w = 8; k = 32; kernel = 3; stride = 1;
        padding = 1; groups = 1 }
  in
  let tune wl =
    Protocol.Tune
      { target = Unit_store.Warmup.X86; engine = Pipeline.Compiled; workload = wl }
  in
  let expect_ok label = function
    | Protocol.Result _ -> ()
    | Protocol.Failure (code, m) ->
      failwith
        (Printf.sprintf "%s failed: %s (%s)" label m
           (Protocol.code_to_string code))
  in
  Printf.printf "metrics-smoke: mixed burst\n%!";
  expect_ok "ping" (Server.submit server Protocol.Ping);
  expect_ok "stats" (Server.submit server Protocol.Stats);
  let resp, tid =
    Server.submit_traced server ~trace_id:smoke_trace_id (tune (conv 32))
  in
  expect_ok "traced tune" resp;
  if tid <> smoke_trace_id then failwith "server replaced the client trace id";
  expect_ok "tune" (Server.submit server (tune (conv 16)));
  expect_ok "run"
    (Server.submit server
       (Protocol.Run
          { target = Unit_store.Warmup.X86; engine = Pipeline.Compiled;
            workload = conv 16 }));
  expect_ok "explain"
    (Server.submit server
       (Protocol.Explain { target = Unit_store.Warmup.X86; workload = conv 16 }));
  (* a deterministic structured failure, so errors_only has a catch *)
  (match
     Server.submit server
       (Protocol.Explain
          { target = Unit_store.Warmup.X86;
            workload = Protocol.Dense { Unit_graph.Workload.d_k = 8; d_units = 8 }
          })
   with
   | Protocol.Failure (Protocol.Not_applicable, _) -> ()
   | _ -> failwith "dense explain was not refused as not_applicable");
  for _ = 1 to 32 do
    expect_ok "ping" (Server.submit server Protocol.Ping)
  done;
  (* 2. the finished trace, as a client would fetch it *)
  (match Server.submit server (Protocol.Trace { id = smoke_trace_id }) with
   | Protocol.Result doc ->
     Cli_io.guard "--trace-file" (fun () ->
         let oc = open_out trace_file in
         output_string oc (Json.to_string doc);
         output_char oc '\n';
         close_out oc);
     Printf.printf "metrics-smoke: trace %s written to %s\n%!" smoke_trace_id
       trace_file
   | Protocol.Failure (_, m) -> failwith ("trace fetch failed: " ^ m));
  (* 3. scrape and validate the exposition *)
  let body =
    match Server.submit server Protocol.Metrics with
    | Protocol.Result r ->
      (match Option.bind (Json.member "body" r) Json.to_str with
       | Some b -> b
       | None -> failwith "metrics response carries no body")
    | Protocol.Failure (_, m) -> failwith ("metrics failed: " ^ m)
  in
  (match Unit_obs.Metrics.validate body with
   | Ok () -> ()
   | Error m -> failwith ("metrics exposition invalid: " ^ m));
  List.iter
    (fun family ->
      if not (contains ~needle:family body) then
        failwith ("metrics scrape lacks " ^ family))
    [ "unit_serve_requests"; "unit_serve_queue_depth";
      "unit_serve_latency_us_bucket" ];
  (* 4. exact (flight window) vs bucket-derived (histogram) p99 *)
  let entries = Unit_serve.Flight.entries (Server.flight server) in
  let exact = Unit_serve.Flight.exact_percentile entries 99.0 in
  let bucketed = Obs.bucket_quantile (Obs.histogram "serve.latency_us") 99.0 in
  if abs (Obs.bucket_index exact - Obs.bucket_index bucketed) > 1 then
    failwith
      (Printf.sprintf
         "p99 disagreement: flight exact %.0fus (bucket %d) vs histogram \
          bucket-derived %.0fus (bucket %d)"
         exact (Obs.bucket_index exact) bucketed (Obs.bucket_index bucketed));
  (* the flight filters, through the protocol *)
  (match
     Server.submit server
       (Protocol.Flight
          { last = Some 8; errors_only = true; slower_than_us = None })
   with
   | Protocol.Result r ->
     (match Option.bind (Json.member "entries" r) Json.to_list with
      | Some (_ :: _) -> ()
      | _ -> failwith "errors_only flight window is empty")
   | Protocol.Failure (_, m) -> failwith ("flight failed: " ^ m));
  Server.drain server;
  Printf.printf
    "metrics-smoke: OK (%d requests; exact p99 %.0fus, bucket-derived p99 \
     %.0fus)\n%!"
    (List.length entries) exact bucketed

(* ---------- cmdliner plumbing ---------- *)

let socket_arg =
  Arg.(
    value
    & opt string "unitd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Sharded tuning-store directory (shard-NN.jsonl files).  Disk \
           hits replay stored configs and skip the tuner sweep; fresh \
           tunings are appended to the owning shard.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard count when creating a new store (default 8).  Reopening \
           an existing store always uses its persisted count.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Enable tracing; print a summary on exit.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write a Chrome trace on exit.")

let serve_cmd =
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission bound: beyond this many queued jobs, overloaded.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts per transiently-failing job.")
  in
  let isa_packs =
    Arg.(
      value & opt_all string []
      & info [ "isa-pack" ] ~docv:"FILE"
          ~doc:
            "Load a declarative .uisa instruction pack at startup \
             (repeatable); further packs can be loaded at runtime with a \
             load_isa request.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the daemon: length-prefixed JSON requests over a Unix-domain \
          socket, served from a pool of OCaml 5 domains with request \
          coalescing, admission control and graceful drain (SIGINT/SIGTERM \
          or a shutdown request).")
    Term.(
      const serve $ socket_arg $ domains $ queue_cap $ retries $ store_arg
      $ shards_arg $ trace_arg $ trace_out_arg $ isa_packs)

let call_cmd =
  let payload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JSON" ~doc:"Request document, e.g. '{\"req\":\"stats\"}'.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send one request to a running daemon and print the response.")
    Term.(const call $ socket_arg $ payload)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "In-process cold+warm cycle for @serve-smoke: N identical \
          concurrent tune requests coalesce into exactly one tuner sweep, \
          then a store-warm burst tunes nothing; writes a lintable trace.")
    Term.(const smoke $ store_arg $ trace_out_arg)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running daemon and print its Prometheus text exposition \
          (counters, gauges, and histograms with power-of-two buckets).")
    Term.(const metrics $ socket_arg)

let metrics_smoke_cmd =
  let trace_file =
    Arg.(
      value
      & opt string "unitd_metrics_trace.json"
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:"Where to write the fetched Chrome trace.")
  in
  Cmd.v
    (Cmd.info "metrics-smoke"
       ~doc:
         "In-process observability cycle for @metrics-smoke: a mixed \
          request burst with a client-supplied trace id, the fetched trace \
          written for trace-lint, the metrics scrape validated as \
          Prometheus text exposition, and the bucket-derived p99 checked \
          against the flight recorder's exact p99.")
    Term.(const metrics_smoke $ store_arg $ trace_file)

let () =
  let info =
    Cmd.info "unitd" ~version:"1.0.0"
      ~doc:"UNIT compilation-as-a-service daemon."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ serve_cmd; call_cmd; smoke_cmd; metrics_cmd; metrics_smoke_cmd ]))
