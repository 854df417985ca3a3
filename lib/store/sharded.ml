(* Sharded tuning store: N independent Store shards behind one facade.
   See sharded.mli. *)

module Pipeline = Unit_core.Pipeline
module Emit_cache = Unit_codegen.Emit_cache
module Diag = Unit_tir.Diag

let default_shards = 8
let meta_file dir = Filename.concat dir "shards"
let shard_file dir i = Filename.concat dir (Printf.sprintf "shard-%02d.jsonl" i)

type t = {
  sh_dir : string;
  sh_shards : Store.t array;
}

let is_sharded_dir path =
  Sys.file_exists path && Sys.is_directory path && Sys.file_exists (meta_file path)

(* The shard of a content address: its first two hex digits (the keys
   are uniformly distributed MD5 hex digests) modulo the shard count.
   Non-hex keys — which the Store never produces — still land
   deterministically via Hashtbl.hash. *)
let index_of_key ~shards key =
  let byte =
    if String.length key >= 2 then
      match int_of_string_opt ("0x" ^ String.sub key 0 2) with
      | Some b -> b
      | None -> Hashtbl.hash key land 0xff
    else Hashtbl.hash key land 0xff
  in
  byte mod shards

let read_meta dir =
  let ic = open_in (meta_file dir) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match int_of_string_opt (String.trim (input_line ic)) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
        raise (Sys_error (meta_file dir ^ ": malformed shard count")))

let write_meta dir n =
  let oc = open_out (meta_file dir) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (string_of_int n ^ "\n"))

let open_ ?(shards = default_shards) dir =
  if shards < 1 then invalid_arg "Sharded.open_: shards must be >= 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory (is this a single-file store?)"));
  (* the on-disk count wins: records were routed under it, so reopening
     with a different ?shards must not silently re-route lookups *)
  let shards =
    if Sys.file_exists (meta_file dir) then read_meta dir
    else begin
      write_meta dir shards;
      shards
    end
  in
  let diags = ref [] in
  let arr =
    Array.init shards (fun i ->
        let store, ds = Store.open_ (shard_file dir i) in
        diags := !diags @ ds;
        store)
  in
  ({ sh_dir = dir; sh_shards = arr }, !diags)

let dir t = t.sh_dir
let shard_count t = Array.length t.sh_shards
let shard t i = t.sh_shards.(i)

let shard_of_key t key =
  index_of_key ~shards:(Array.length t.sh_shards) key

let shard_of_signature t ~signature =
  t.sh_shards.(shard_of_key t (Store.key_of_signature signature))

let lookup t ~signature = Store.lookup (shard_of_signature t ~signature) ~signature

let record ?report t ~signature ~workload ~isa ~target ~config ~cycles
    ~diag_digest =
  Store.record ?report
    (shard_of_signature t ~signature)
    ~signature ~workload ~isa ~target ~config ~cycles ~diag_digest

let size t = Array.fold_left (fun acc s -> acc + Store.size s) 0 t.sh_shards
let iter t f = Array.iter (fun s -> Store.iter s f) t.sh_shards
let save t = Array.iter Store.save t.sh_shards

let stats t =
  Array.fold_left
    (fun acc s ->
      let st = Store.stats s in
      { Store.st_records = acc.Store.st_records + st.Store.st_records;
        st_artifacts = acc.Store.st_artifacts + st.Store.st_artifacts;
        st_loaded = acc.Store.st_loaded + st.Store.st_loaded;
        st_corrupt = acc.Store.st_corrupt + st.Store.st_corrupt;
        st_stale = acc.Store.st_stale + st.Store.st_stale;
        st_hits = acc.Store.st_hits + st.Store.st_hits;
        st_misses = acc.Store.st_misses + st.Store.st_misses;
        st_appends = acc.Store.st_appends + st.Store.st_appends
      })
    { Store.st_records = 0; st_artifacts = 0; st_loaded = 0; st_corrupt = 0;
      st_stale = 0; st_hits = 0; st_misses = 0; st_appends = 0 }
    t.sh_shards

let gc t =
  Array.fold_left
    (fun acc s ->
      let r = Store.gc s in
      { Store.gc_live = acc.Store.gc_live + r.Store.gc_live;
        gc_dropped = acc.Store.gc_dropped + r.Store.gc_dropped;
        gc_deleted_files = acc.Store.gc_deleted_files + r.Store.gc_deleted_files;
        gc_reclaimed_bytes =
          acc.Store.gc_reclaimed_bytes + r.Store.gc_reclaimed_bytes
      })
    { Store.gc_live = 0; gc_dropped = 0; gc_deleted_files = 0;
      gc_reclaimed_bytes = 0 }
    t.sh_shards

(* Hooks route by content address, so concurrent writers of different
   shards never contend on one mutex or append to one file — the whole
   point of sharding. *)
let pipeline_hooks t =
  let hooks = Array.map Store.pipeline_hooks t.sh_shards in
  let of_sig signature =
    hooks.(shard_of_key t (Store.key_of_signature signature))
  in
  { Pipeline.ts_lookup =
      (fun ~signature -> (of_sig signature).Pipeline.ts_lookup ~signature);
    ts_record =
      (fun ~signature ~workload ~isa ~target ~diags tuned ->
        (of_sig signature).Pipeline.ts_record ~signature ~workload ~isa ~target
          ~diags tuned)
  }

let emit_hooks t =
  let hooks = Array.map Store.emit_hooks t.sh_shards in
  let of_key key = hooks.(shard_of_key t key) in
  { Emit_cache.ah_dir = (fun ~key -> (of_key key).Emit_cache.ah_dir ~key);
    ah_lookup = (fun ~key -> (of_key key).Emit_cache.ah_lookup ~key);
    ah_record =
      (fun ~key ~signature ~file ~bytes ~digest ->
        (of_key key).Emit_cache.ah_record ~key ~signature ~file ~bytes ~digest)
  }

(* ---------- migration from a legacy single-file store ---------- *)

let copy_file ~src ~dst =
  let ic = open_in_bin src in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      let oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc contents))

type migration = {
  mg_records : int;
  mg_artifacts : int;
}

let migrate t ~legacy =
  let src, diags = Store.open_ legacy in
  let records = ref 0 in
  Store.iter src (fun r ->
      record ?report:r.Store.r_report t ~signature:r.Store.r_signature
        ~workload:r.Store.r_workload ~isa:r.Store.r_isa ~target:r.Store.r_target
        ~config:r.Store.r_config ~cycles:r.Store.r_cycles
        ~diag_digest:r.Store.r_diag_digest;
      incr records);
  let artifacts = ref 0 in
  Store.iter_artifacts src (fun a ->
      (* only live artifacts move: stale ones would be re-stamped with
         the current versions by artifact_record and wrongly resurrected *)
      match Store.artifact_lookup src ~key:a.Store.a_key with
      | None -> ()
      | Some a ->
        let shard = t.sh_shards.(shard_of_key t a.Store.a_key) in
        let dst_dir = Store.artifacts_dir shard in
        if not (Sys.file_exists dst_dir) then Unix.mkdir dst_dir 0o755;
        copy_file
          ~src:(Filename.concat (Store.artifacts_dir src) a.Store.a_file)
          ~dst:(Filename.concat dst_dir a.Store.a_file);
        Store.artifact_record shard ~key:a.Store.a_key
          ~signature:a.Store.a_signature ~file:a.Store.a_file
          ~bytes:a.Store.a_bytes ~digest:a.Store.a_digest;
        incr artifacts);
  save t;
  ({ mg_records = !records; mg_artifacts = !artifacts }, diags)
