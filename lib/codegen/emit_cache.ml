open Unit_tir

(* Compile-and-load layer over {!Emit}: ocamlopt shell-out, native
   Dynlink, a per-process memo (native Dynlink cannot reload a module
   name, so the memo is correctness, not just speed), and persistent
   artifact records through hooks the store installs.

   Lock layout — nothing is held across the out-of-process ocamlopt
   call, so cold compiles of distinct kernels run in parallel and never
   stall a warm hit:
   - memo probe: a copy-on-write map snapshot in an [Atomic] (the
     {!Unit_isa.Registry} pattern); a warm hit takes no lock;
   - per-key flight ({!Singleflight}) around a miss: store lookup and
     verification, ocamlopt, install + record, load.  Callers of one key
     queue behind its leader and then hit the memo, so each key is
     loaded exactly once per process;
   - [dynlink_lock]: only [Dynlink.loadfile_private] +
     [Unit_emit_hook.take], both process-global.

   The hot path is one snapshot probe on the artifact key, and the key
   itself is two MD5s over strings that are already in memory. *)

module Obs = Unit_obs.Obs

let c_artifact_hit = Obs.counter "emit.artifact.hit"
let c_artifact_miss = Obs.counter "emit.artifact.miss"
let c_artifact_corrupt = Obs.counter "emit.artifact.corrupt"
let c_memo_hit = Obs.counter "emit.memo.hit"
let c_fallback = Obs.counter "emit.fallback"

type stored_artifact = {
  sa_path : string;
  sa_bytes : int;
  sa_digest : string option;
}

type artifact_hooks = {
  ah_dir : key:string -> string;
  ah_lookup : key:string -> stored_artifact option;
  ah_record :
    key:string -> signature:string -> file:string -> bytes:int -> digest:string -> unit;
}

let hooks : artifact_hooks option Atomic.t = Atomic.make None
let set_artifact_hooks h = Atomic.set hooks h
(* ---- availability probing (memoized) *)

let probe_cmd cmd =
  (* sh exit 127 = not found; any non-zero means unusable *)
  Sys.command (Printf.sprintf "%s -version 1>/dev/null 2>/dev/null" cmd) = 0

let find_compiler () =
  if probe_cmd "ocamlfind ocamlopt" then Ok "ocamlfind ocamlopt"
  else if probe_cmd "ocamlopt" then Ok "ocamlopt"
  else Error "no ocamlfind ocamlopt / ocamlopt on PATH"

(* Directories holding unit_emit_hook.{cmi,cmx}: the generated module
   references it, so ocamlopt needs them on its include path.  dune puts
   the .cmi under .unit_emitrt.objs/byte and the .cmx under .../native;
   we search upward from the running executable (tests and unitc both
   live under _build/default). *)
let find_emitrt_dirs () =
  let dirs_of_objs objs =
    List.filter Sys.file_exists
      [ Filename.concat objs "byte"; Filename.concat objs "native" ]
  in
  match Sys.getenv_opt "UNIT_EMITRT_DIR" with
  | Some d when Sys.file_exists (Filename.concat d "unit_emit_hook.cmi") ->
    Ok [ d ]
  | Some d when Sys.file_exists (Filename.concat d "byte/unit_emit_hook.cmi") ->
    Ok (dirs_of_objs d)
  | Some d -> Error (Printf.sprintf "UNIT_EMITRT_DIR=%s: no unit_emit_hook.cmi" d)
  | None ->
    let rec walk dir depth =
      if depth > 8 then Error "unit_emitrt build artifacts not found"
      else begin
        let objs = Filename.concat dir "lib/emitrt/.unit_emitrt.objs" in
        if Sys.file_exists (Filename.concat objs "byte/unit_emit_hook.cmi") then
          Ok (dirs_of_objs objs)
        else begin
          let parent = Filename.dirname dir in
          if String.equal parent dir then
            Error "unit_emitrt build artifacts not found"
          else walk parent (depth + 1)
        end
      end
    in
    walk (Filename.dirname Sys.executable_name) 0

type toolchain = {
  tc_compiler : string;
  tc_incdirs : string list;
}

let toolchain : (toolchain, string) result option Atomic.t = Atomic.make None

let available_tc () =
  match Atomic.get toolchain with
  | Some r -> r
  | None ->
    let r =
      if not Dynlink.is_native then
        Error "bytecode runtime: native Dynlink unavailable"
      else
        match find_compiler () with
        | Error e -> Error e
        | Ok tc_compiler ->
          (match find_emitrt_dirs () with
           | Error e -> Error e
           | Ok tc_incdirs -> Ok { tc_compiler; tc_incdirs })
    in
    Atomic.set toolchain (Some r);
    r

let available () =
  match available_tc () with Ok _ -> Ok () | Error e -> Error e

(* ---- keying *)

let artifact_key ~signature ~source =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "unit-emit-v%d|ocaml-%s|%s|%s" Emit.version
          Sys.ocaml_version signature
          (Digest.to_hex (Digest.string source))))

let modname_of_key key = "unit_emitted_" ^ String.sub key 0 16

(* ---- compile + load *)

module Smap = Map.Make (String)

let memo : Unit_emit_hook.kernel Smap.t Atomic.t = Atomic.make Smap.empty

let rec memo_add key fn =
  let m = Atomic.get memo in
  if not (Atomic.compare_and_set memo m (Smap.add key fn m)) then memo_add key fn

let memo_find key =
  match Smap.find_opt key (Atomic.get memo) with
  | Some fn ->
    Obs.incr c_memo_hit;
    Some fn
  | None -> None

let flights = Singleflight.create ()
let dynlink_lock = Mutex.create ()

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* Forcing one lazy from two domains at once raises [Lazy.Undefined] in
   OCaml 5, so the first force is serialized. *)
let tmp_lock = Mutex.create ()

let tmp_dir_cell =
  lazy
    (let d =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "unit-emit-%d" (Unix.getpid ()))
     in
     mkdir_p d;
     d)

let tmp_dir () = Mutex.protect tmp_lock (fun () -> Lazy.force tmp_dir_cell)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let content_digest contents = Digest.to_hex (Digest.string contents)

let first_line_of s =
  match String.index_opt s '\n' with
  | Some i when i > 0 -> String.sub s 0 (Stdlib.min i 200)
  | _ -> if String.length s > 200 then String.sub s 0 200 else s

(* ocamlopt runs in flight in this process; see [make_par]. *)
let compiling = Atomic.make 0

let dynlink_take path =
  Mutex.protect dynlink_lock @@ fun () ->
  Obs.with_span "emit.dynlink" @@ fun () ->
  match Dynlink.loadfile_private path with
  | exception Dynlink.Error e -> Error (Dynlink.error_message e)
  | exception e -> Error (Printexc.to_string e)
  | () ->
    (match Unit_emit_hook.take () with
     | Some fn -> Ok fn
     | None -> Error (Printf.sprintf "%s registered no kernel" path))

let compile_source tc ~fault ~key ~modname ~source =
  Obs.with_span "emit.compile" @@ fun () ->
  fault ~key;
  let dir = tmp_dir () in
  let src = Filename.concat dir (modname ^ ".ml") in
  let out = Filename.concat dir (modname ^ ".cmxs") in
  let log = Filename.concat dir (modname ^ ".log") in
  write_file src source;
  let includes =
    String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) tc.tc_incdirs)
  in
  let cmd =
    Printf.sprintf "%s -shared %s -o %s %s 2>%s" tc.tc_compiler includes
      (Filename.quote out) (Filename.quote src) (Filename.quote log)
  in
  Atomic.incr compiling;
  let rc =
    Fun.protect ~finally:(fun () -> Atomic.decr compiling) (fun () -> Sys.command cmd)
  in
  if rc <> 0 || not (Sys.file_exists out) then begin
    let detail = try first_line_of (read_file log) with _ -> "" in
    Error (Printf.sprintf "ocamlopt exit %d: %s" rc detail)
  end
  else Ok out

(* Copy the compiled .cmxs into the artifact directory; rename is not
   portable across filesystems (the temp dir is often tmpfs), so write
   to a sibling then rename within the destination. *)
let install_artifact ~dir ~file ~from =
  mkdir_p dir;
  let dst = Filename.concat dir file in
  let tmp = dst ^ ".tmp" in
  let contents = read_file from in
  write_file tmp contents;
  Sys.rename tmp dst;
  (dst, String.length contents, content_digest contents)

(* Nothing read from disk reaches [dlopen] unchecked: the payload must
   have the recorded size and content digest.  Records written before
   digests were kept fail too, and are recompiled and re-recorded. *)
let verify_artifact sa =
  match read_file sa.sa_path with
  | exception Sys_error e -> Error e
  | contents when String.length contents <> sa.sa_bytes ->
    Error
      (Printf.sprintf "%d bytes on disk, %d recorded" (String.length contents)
         sa.sa_bytes)
  | contents ->
    (match sa.sa_digest with
     | None -> Error "record carries no content digest"
     | Some d when String.equal d (content_digest contents) -> Ok ()
     | Some _ -> Error "content digest mismatch")

let artifact_warning_last : Diag.t option Atomic.t = Atomic.make None
let last_artifact_warning () = Atomic.get artifact_warning_last

let note_bad_artifact sa reason =
  Obs.incr c_artifact_corrupt;
  let d =
    Diag.warnf Diag.Store "artifact %s failed verification (%s); recompiling"
      sa.sa_path reason
  in
  Atomic.set artifact_warning_last (Some d);
  Obs.trace_diag (Diag.to_string d);
  prerr_endline (Diag.to_string d)

let load_from_store ~key =
  match Atomic.get hooks with
  | None -> None
  | Some h ->
    (match h.ah_lookup ~key with
     | None -> None
     | Some sa ->
       (match verify_artifact sa with
        | Error reason ->
          note_bad_artifact sa reason;
          None
        | Ok () ->
          Obs.incr c_artifact_hit;
          (match dynlink_take sa.sa_path with
           | Ok fn -> Some fn
           | Error _ ->
             (* verified but unloadable (e.g. built against another
                runtime): recompile below *)
             None)))

(* A miss, in preference order: persistent artifact, fresh compile.
   Runs under [key]'s flight; a leader that finished while this caller
   queued has already filled the memo.  Failures are not memoized, so
   the next caller retries. *)
let load_cold tc ~fault ~signature ~key ~source =
  match memo_find key with
  | Some fn -> Ok fn
  | None ->
    let result =
      match load_from_store ~key with
      | Some fn -> Ok fn
      | None ->
        Obs.incr c_artifact_miss;
        let modname = modname_of_key key in
        (match compile_source tc ~fault ~key ~modname ~source with
         | Error e -> Error e
         | Ok built ->
           let path =
             match Atomic.get hooks with
             | None -> built
             | Some h ->
               let file = modname ^ ".cmxs" in
               (match install_artifact ~dir:(h.ah_dir ~key) ~file ~from:built with
                | dst, bytes, digest ->
                  h.ah_record ~key ~signature ~file ~bytes ~digest;
                  dst
                | exception _ -> built)
           in
           dynlink_take path)
    in
    Result.iter (memo_add key) result;
    result

type kernel = {
  k_plan : Emit.plan;
  k_fn : Unit_emit_hook.kernel;
}

let no_fault ~key:_ = ()

let load ?(fault = no_fault) ~signature func =
  match available_tc () with
  | Error e -> Error e
  | Ok tc ->
    (match Obs.with_span "emit.render" (fun () -> Emit.render func) with
     | exception Emit.Unsupported msg -> Error ("unsupported: " ^ msg)
     | plan, source ->
       let key = artifact_key ~signature ~source in
       let fn =
         match memo_find key with
         | Some fn -> Ok fn
         | None ->
           fst
             (Singleflight.with_key flights key (fun () ->
                  load_cold tc ~fault ~signature ~key ~source))
       in
       Result.map (fun fn -> { k_plan = plan; k_fn = fn }) fn)

(* ---- running a loaded kernel *)

let error fmt = Printf.ksprintf (fun s -> raise (Interp.Runtime_error s)) fmt

(* Parallel fan for emitted [Parallel] loops.  Guarded by a busy flag:
   if a kernel is already fanning (or the caller sits inside the
   oracle), nested fans run serially rather than oversubscribing.  Fans
   also run serially while an ocamlopt is in flight: compiles no longer
   block warm kernels, so without this a fanning kernel and the
   compiler contend for the same cores and the cold request waiting on
   the compile pays for it. *)
let par_busy = Atomic.make false

let make_par () =
  let domains = Parallel_oracle.default_domains () in
  fun extent body ->
    if extent <= 1 then begin
      for i = 0 to extent - 1 do
        body i
      done
    end
    else if
      domains <= 1
      || Atomic.get compiling > 0
      || not (Atomic.compare_and_set par_busy false true)
    then
      for i = 0 to extent - 1 do
        body i
      done
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set par_busy false)
        (fun () ->
          Parallel_oracle.iter ~domains body (List.init extent Fun.id))

let run_kernel { k_plan; k_fn } ~bindings =
  Obs.with_span "emit.run" @@ fun () ->
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((t : Unit_dsl.Tensor.t), arr) ->
      if not (Hashtbl.mem tbl t.Unit_dsl.Tensor.id) then
        Hashtbl.add tbl t.Unit_dsl.Tensor.id arr)
    bindings;
  let n = List.length k_plan.Emit.p_entries in
  let af = Array.make (Stdlib.max k_plan.Emit.p_nf 1) [||] in
  let ai = Array.make (Stdlib.max k_plan.Emit.p_ni 1) [||] in
  let al = Array.make (Stdlib.max k_plan.Emit.p_nl 1) [||] in
  let offs = Array.make (Stdlib.max n 1) 0 in
  List.iter
    (fun (e : Emit.entry) ->
      let t = e.Emit.e_tensor in
      let b = e.Emit.e_buf in
      match Hashtbl.find_opt tbl t.Unit_dsl.Tensor.id with
      | None -> error "tensor %s not bound" t.Unit_dsl.Tensor.name
      | Some (arr : Ndarray.t) ->
        if not (Unit_dtype.Dtype.equal arr.Ndarray.dtype b.Buffer.dtype) then
          error "buffer %s: dtype mismatch (%s vs %s)" b.Buffer.name
            (Unit_dtype.Dtype.to_string arr.Ndarray.dtype)
            (Unit_dtype.Dtype.to_string b.Buffer.dtype);
        if Ndarray.num_elements arr <> b.Buffer.size then
          error "buffer %s: %d elements bound, %d expected" b.Buffer.name
            (Ndarray.num_elements arr) b.Buffer.size;
        offs.(e.Emit.e_slot) <- arr.Ndarray.offset;
        (match e.Emit.e_class, arr.Ndarray.storage with
         | Emit.KF, Ndarray.Float_data a -> af.(e.Emit.e_cell) <- a
         | Emit.KI, Ndarray.Int_data a -> ai.(e.Emit.e_cell) <- a
         | Emit.KL, Ndarray.Int64_data a -> al.(e.Emit.e_cell) <- a
         | _ -> error "buffer %s: storage kind mismatch" b.Buffer.name))
    k_plan.Emit.p_entries;
  k_fn af ai al offs (make_par ())

(* ---- fallback ladder *)

let fallback_lock = Mutex.create ()
let fallback_seen : (string, unit) Hashtbl.t = Hashtbl.create 8
let fallback_last : Diag.t option Atomic.t = Atomic.make None
let last_fallback () = Atomic.get fallback_last

let note_fallback ~name reason =
  let d =
    Diag.warnf Diag.Emit "%s: falling back to the closure engine (%s)" name
      reason
  in
  Atomic.set fallback_last (Some d);
  let fresh =
    Mutex.protect fallback_lock (fun () ->
        let fresh = not (Hashtbl.mem fallback_seen reason) in
        if fresh then Hashtbl.add fallback_seen reason ();
        fresh)
  in
  if fresh then prerr_endline (Diag.to_string d)

let default_signature (func : Lower.func) = "adhoc|" ^ func.Lower.fn_name

let prepare ?fault ~signature func =
  match load ?fault ~signature func with
  | Ok _ -> Ok ()
  | Error e ->
    Obs.incr c_fallback;
    Error e

let run ?signature func ~bindings =
  let signature =
    match signature with Some s -> s | None -> default_signature func
  in
  match load ~signature func with
  | Ok k -> run_kernel k ~bindings
  | Error reason ->
    Obs.incr c_fallback;
    note_fallback ~name:func.Lower.fn_name reason;
    if List.exists (fun (_, arr) -> Ndarray.is_view arr) bindings then
      (* the closure engine rejects views; the tree-walker is offset-aware *)
      Interp.run func ~bindings
    else Compile.run func ~bindings
