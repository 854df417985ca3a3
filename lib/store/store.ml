(* The persistent tuning database: append-only JSONL, content-addressed
   keys, skip-and-warn recovery.  See store.mli for the contract. *)

module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Json = Unit_obs.Json
module Obs = Unit_obs.Obs
module Diag = Unit_tir.Diag

let schema_version = 1

(* Disk-traffic telemetry (no-ops unless tracing is enabled); the plain
   [stats] below count unconditionally so the warm-up CLI can report hits
   without tracing. *)
let c_hit = Obs.counter "store.disk.hit"
let c_miss = Obs.counter "store.disk.miss"
let c_append = Obs.counter "store.append"
let c_corrupt = Obs.counter "store.corrupt"
let c_stale = Obs.counter "store.stale"

type record = {
  r_key : string;
  r_signature : string;
  r_workload : string;
  r_isa : string;
  r_target : string;
  r_config : Cpu_tuner.config;
  r_cycles : float;
  r_diag_digest : string;
  r_report : Unit_machine.Cost_report.t option;
}

type artifact = {
  a_key : string;
  a_signature : string;
  a_emitter : int;
  a_compiler : string;
  a_file : string;
  a_bytes : int;
  a_digest : string option;
}

type stats = {
  st_records : int;
  st_artifacts : int;
  st_loaded : int;
  st_corrupt : int;
  st_stale : int;
  st_hits : int;
  st_misses : int;
  st_appends : int;
}

type t = {
  t_path : string;
  t_lock : Mutex.t;
  t_records : (string, record) Hashtbl.t;  (* key -> latest record *)
  t_artifacts : (string, artifact) Hashtbl.t;  (* key -> latest artifact *)
  mutable t_loaded : int;
  mutable t_corrupt : int;
  mutable t_stale : int;
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_appends : int;
}

let with_lock t f =
  Mutex.lock t.t_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.t_lock) f

let key_of_signature signature =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "unit-store-v%d|tuner-v%d|%s" schema_version
          Cpu_tuner.version signature))

let diag_digest diags =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Diag.to_string diags)))

(* ---------- (de)serialization ---------- *)

let record_to_json r =
  Json.Obj
    ([ ("v", Json.Num (float_of_int schema_version));
       ("tuner", Json.Num (float_of_int Cpu_tuner.version));
       ("key", Json.Str r.r_key);
       ("sig", Json.Str r.r_signature);
       ("workload", Json.Str r.r_workload);
       ("isa", Json.Str r.r_isa);
       ("target", Json.Str r.r_target);
       ("config", Cpu_tuner.config_to_json r.r_config);
       ("cycles", Json.Num r.r_cycles);
       ("diags", Json.Str r.r_diag_digest)
     ]
     @
     (* attribution is an optional trailer: records written before it
        existed stay valid under schema v1 *)
     match r.r_report with
     | Some rep -> [ ("report", Unit_machine.Cost_report.to_json rep) ]
     | None -> [])

(* [Error (`Corrupt m)] for undecodable/invalid lines, [Error (`Stale m)]
   for well-formed lines written under another schema or tuner version. *)
let record_of_json j =
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %s missing or not a string" name)
  in
  let int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %s missing or not an integer" name)
  in
  let ( let* ) r f = Result.bind r f in
  match
    let* v = int "v" in
    let* tuner = int "tuner" in
    Ok (v, tuner)
  with
  | Error m -> Error (`Corrupt m)
  | Ok (v, tuner) ->
    if v <> schema_version then
      Error (`Stale (Printf.sprintf "schema v%d (want v%d)" v schema_version))
    else if tuner <> Cpu_tuner.version then
      Error (`Stale (Printf.sprintf "tuner v%d (want v%d)" tuner Cpu_tuner.version))
    else begin
      match
        let* r_key = str "key" in
        let* r_signature = str "sig" in
        let* r_workload = str "workload" in
        let* r_isa = str "isa" in
        let* r_target = str "target" in
        let* config_json =
          match Json.member "config" j with
          | Some c -> Ok c
          | None -> Error "field config missing"
        in
        let* r_config = Cpu_tuner.config_of_json config_json in
        let* r_cycles =
          match Option.bind (Json.member "cycles" j) Json.to_num with
          | Some c when c >= 0.0 -> Ok c
          | Some _ -> Error "field cycles is negative"
          | None -> Error "field cycles missing or not a number"
        in
        let* r_diag_digest = str "diags" in
        let* r_report =
          match Json.member "report" j with
          | None -> Ok None
          | Some rep ->
            (match Unit_machine.Cost_report.of_json rep with
             | Ok r -> Ok (Some r)
             | Error m -> Error ("field report: " ^ m))
        in
        Ok
          { r_key; r_signature; r_workload; r_isa; r_target; r_config; r_cycles;
            r_diag_digest; r_report
          }
      with
      | Error m -> Error (`Corrupt m)
      | Ok r ->
        (* verify the content address: a record whose key does not hash
           from its own signature has been tampered with or mis-spliced *)
        if String.equal r.r_key (key_of_signature r.r_signature) then Ok r
        else Error (`Corrupt "key does not match the signature's content hash")
    end

(* Artifact records of the native-emission engine share the JSONL file,
   discriminated by a "kind":"artifact" member (tuning records have no
   "kind").  Emitter/compiler versions are data, not gates: records from
   another toolchain load fine — {!artifact_lookup} filters them out and
   {!gc} reclaims them. *)

let artifact_to_json a =
  Json.Obj
    ([ ("kind", Json.Str "artifact");
       ("v", Json.Num (float_of_int schema_version));
       ("key", Json.Str a.a_key);
       ("sig", Json.Str a.a_signature);
       ("emitter", Json.Num (float_of_int a.a_emitter));
       ("compiler", Json.Str a.a_compiler);
       ("file", Json.Str a.a_file);
       ("bytes", Json.Num (float_of_int a.a_bytes))
     ]
    @ match a.a_digest with Some d -> [ ("digest", Json.Str d) ] | None -> [])

let artifact_of_json j =
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %s missing or not a string" name)
  in
  let int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %s missing or not an integer" name)
  in
  let ( let* ) r f = Result.bind r f in
  match int "v" with
  | Error m -> Error (`Corrupt m)
  | Ok v when v <> schema_version ->
    Error (`Stale (Printf.sprintf "schema v%d (want v%d)" v schema_version))
  | Ok _ ->
    (match
       let* a_key = str "key" in
       let* a_signature = str "sig" in
       let* a_emitter = int "emitter" in
       let* a_compiler = str "compiler" in
       let* a_file = str "file" in
       let* a_bytes = int "bytes" in
       if a_bytes < 0 then Error "field bytes is negative"
       else if
         String.contains a_file '/'
         || String.equal a_file ".."
         || String.equal a_file ""
       then Error "field file is not a plain basename"
       else
         let a_digest = Option.bind (Json.member "digest" j) Json.to_str in
         Ok { a_key; a_signature; a_emitter; a_compiler; a_file; a_bytes; a_digest }
     with
     | Error m -> Error (`Corrupt m)
     | Ok a -> Ok a)

let is_artifact_line j =
  match Option.bind (Json.member "kind" j) Json.to_str with
  | Some "artifact" -> true
  | _ -> false

(* ---------- open / load ---------- *)

let load_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  end

let open_ path =
  (* create the file eagerly so an empty warm-up still leaves a store *)
  if not (Sys.file_exists path) then begin
    let oc = open_out_gen [ Open_creat; Open_append; Open_binary ] 0o644 path in
    close_out oc
  end;
  let t =
    { t_path = path;
      t_lock = Mutex.create ();
      t_records = Hashtbl.create 64;
      t_artifacts = Hashtbl.create 16;
      t_loaded = 0;
      t_corrupt = 0;
      t_stale = 0;
      t_hits = 0;
      t_misses = 0;
      t_appends = 0
    }
  in
  let diags = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        let skip kind m =
          (match kind with
           | `Corrupt ->
             t.t_corrupt <- t.t_corrupt + 1;
             Obs.incr c_corrupt
           | `Stale ->
             t.t_stale <- t.t_stale + 1;
             Obs.incr c_stale);
          diags :=
            Diag.warnf Diag.Store "%s:%d: skipped %s line (%s)" path (i + 1)
              (match kind with `Corrupt -> "corrupt" | `Stale -> "stale")
              m
            :: !diags
        in
        match Json.parse line with
        | Error m -> skip `Corrupt m
        | Ok j when is_artifact_line j ->
          (match artifact_of_json j with
           | Error (`Corrupt m) -> skip `Corrupt m
           | Error (`Stale m) -> skip `Stale m
           | Ok a ->
             t.t_loaded <- t.t_loaded + 1;
             Hashtbl.replace t.t_artifacts a.a_key a)
        | Ok j ->
          (match record_of_json j with
           | Error (`Corrupt m) -> skip `Corrupt m
           | Error (`Stale m) -> skip `Stale m
           | Ok r ->
             t.t_loaded <- t.t_loaded + 1;
             Hashtbl.replace t.t_records r.r_key r)
      end)
    (load_lines path);
  (t, List.rev !diags)

let path t = t.t_path

(* ---------- queries ---------- *)

let lookup t ~signature =
  let key = key_of_signature signature in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.t_records key with
      | Some r ->
        t.t_hits <- t.t_hits + 1;
        Obs.incr c_hit;
        Some r
      | None ->
        t.t_misses <- t.t_misses + 1;
        Obs.incr c_miss;
        None)

let size t = with_lock t (fun () -> Hashtbl.length t.t_records)

let stats t =
  with_lock t (fun () ->
      { st_records = Hashtbl.length t.t_records;
        st_artifacts = Hashtbl.length t.t_artifacts;
        st_loaded = t.t_loaded;
        st_corrupt = t.t_corrupt;
        st_stale = t.t_stale;
        st_hits = t.t_hits;
        st_misses = t.t_misses;
        st_appends = t.t_appends
      })

let iter t f =
  let snapshot =
    with_lock t (fun () -> Hashtbl.fold (fun _ r acc -> r :: acc) t.t_records [])
  in
  List.iter f snapshot

(* ---------- writes ---------- *)

let append_line t line =
  let oc = open_out_gen [ Open_creat; Open_append; Open_binary ] 0o644 t.t_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n')

let record ?report t ~signature ~workload ~isa ~target ~config ~cycles ~diag_digest =
  let r =
    { r_key = key_of_signature signature;
      r_signature = signature;
      r_workload = workload;
      r_isa = isa;
      r_target = target;
      r_config = config;
      r_cycles = cycles;
      r_diag_digest = diag_digest;
      r_report = report
    }
  in
  with_lock t (fun () ->
      Hashtbl.replace t.t_records r.r_key r;
      t.t_appends <- t.t_appends + 1;
      Obs.incr c_append;
      append_line t (Json.to_string (record_to_json r)))

let save t =
  with_lock t (fun () ->
      let tmp = Printf.sprintf "%s.tmp.%d" t.t_path (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      (try
         Hashtbl.iter
           (fun _ r ->
             output_string oc (Json.to_string (record_to_json r));
             output_char oc '\n')
           t.t_records;
         Hashtbl.iter
           (fun _ a ->
             output_string oc (Json.to_string (artifact_to_json a));
             output_char oc '\n')
           t.t_artifacts;
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp t.t_path)

(* ---------- the pipeline's view ---------- *)

let pipeline_hooks t =
  { Unit_core.Pipeline.ts_lookup =
      (fun ~signature -> Option.map (fun r -> r.r_config) (lookup t ~signature));
    ts_record =
      (fun ~signature ~workload ~isa ~target ~diags tuned ->
        record t ~report:tuned.Cpu_tuner.t_report ~signature ~workload ~isa
          ~target ~config:tuned.Cpu_tuner.t_config
          ~cycles:tuned.Cpu_tuner.t_estimate.Unit_machine.Cpu_model.est_cycles
          ~diag_digest:(diag_digest diags))
  }

(* ---------- native-kernel artifacts ---------- *)

module Emit = Unit_codegen.Emit
module Emit_cache = Unit_codegen.Emit_cache

let artifacts_dir t = t.t_path ^ ".artifacts"

let artifact_path t a = Filename.concat (artifacts_dir t) a.a_file

let is_live t a =
  a.a_emitter = Emit.version
  && String.equal a.a_compiler Sys.ocaml_version
  && Sys.file_exists (artifact_path t a)

let artifact_lookup t ~key =
  match with_lock t (fun () -> Hashtbl.find_opt t.t_artifacts key) with
  | Some a when is_live t a -> Some a
  | _ -> None

let artifact_record t ~key ~signature ~file ~bytes ~digest =
  let a =
    { a_key = key;
      a_signature = signature;
      a_emitter = Emit.version;
      a_compiler = Sys.ocaml_version;
      a_file = file;
      a_bytes = bytes;
      a_digest = digest
    }
  in
  with_lock t (fun () ->
      Hashtbl.replace t.t_artifacts a.a_key a;
      t.t_appends <- t.t_appends + 1;
      Obs.incr c_append;
      append_line t (Json.to_string (artifact_to_json a)))

let iter_artifacts t f =
  let snapshot =
    with_lock t (fun () ->
        Hashtbl.fold (fun _ a acc -> a :: acc) t.t_artifacts [])
  in
  List.iter f snapshot

let emit_hooks t =
  { Emit_cache.ah_dir = (fun ~key:_ -> artifacts_dir t);
    ah_lookup =
      (fun ~key ->
        Option.map
          (fun a ->
            { Emit_cache.sa_path = artifact_path t a;
              sa_bytes = a.a_bytes;
              sa_digest = a.a_digest
            })
          (artifact_lookup t ~key));
    ah_record =
      (fun ~key ~signature ~file ~bytes ~digest ->
        artifact_record t ~key ~signature ~file ~bytes ~digest:(Some digest))
  }

type gc_report = {
  gc_live : int;
  gc_dropped : int;
  gc_deleted_files : int;
  gc_reclaimed_bytes : int;
}

let gc t =
  let dropped = ref 0 in
  with_lock t (fun () ->
      Hashtbl.iter
        (fun key a ->
          if not (is_live t a) then begin
            Hashtbl.remove t.t_artifacts key;
            incr dropped
          end)
        (Hashtbl.copy t.t_artifacts));
  (* sweep the payload directory: anything no live record references —
     dropped records' kernels, stale-line orphans, leftover .tmp files *)
  let referenced = Hashtbl.create 16 in
  iter_artifacts t (fun a -> Hashtbl.replace referenced a.a_file ());
  let deleted = ref 0 and reclaimed = ref 0 in
  let dir = artifacts_dir t in
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun file ->
        if not (Hashtbl.mem referenced file) then begin
          let p = Filename.concat dir file in
          match (Unix.stat p).Unix.st_size with
          | size ->
            (try
               Sys.remove p;
               incr deleted;
               reclaimed := !reclaimed + size
             with Sys_error _ -> ())
          | exception Unix.Unix_error _ -> ()
        end)
      (Sys.readdir dir);
  save t;
  { gc_live = with_lock t (fun () -> Hashtbl.length t.t_artifacts);
    gc_dropped = !dropped;
    gc_deleted_files = !deleted;
    gc_reclaimed_bytes = !reclaimed
  }
