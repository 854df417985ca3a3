(* Shared by the three workloads: the clock, order statistics, seeded
   inputs, failure accounting, the run directory, and the readers that
   turn the program's own spans and counters into per-layer figures. *)

module Obs = Unit_obs.Obs
module Ndarray = Unit_codegen.Ndarray
module Dtype = Unit_dtype.Dtype
module Value = Unit_dtype.Value

let now = Obs.now

(* When the process started, on [now]'s clock.  The driver script passes
   the moment it launched the process ([--t0]), so [setup_s] covers the
   runtime's start and the libraries' initialisation (the instruction
   registry fills itself then); run by hand, the clock starts here,
   when the benchmark's first module initialises. *)
let process_t0 = ref (now ())

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rank n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

(* Nearest-rank percentile, the definition [Flight.exact_percentile]
   uses, so client-side and server-side figures are comparable. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (rank n p - 1))

(* Samples that lie beyond the nearest-rank [p]th percentile: a tail
   percentile means something only when this is at least ten. *)
let beyond n p = if n = 0 then 0 else n - rank n p

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (mean (List.map log xs))

(* Average ranks (ties share the mean of their positions). *)
let ranks xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare a.(i) a.(j)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && a.(idx.(!j + 1)) = a.(idx.(!i)) do incr j done;
    let avg = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do r.(idx.(k)) <- avg done;
    i := !j + 1
  done;
  Array.to_list r

(* Spearman rank correlation; 0 when either side has no spread. *)
let spearman xs ys =
  let rx = ranks xs and ry = ranks ys in
  let mx = mean rx and my = mean ry in
  let cov = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
  List.iter2
    (fun x y ->
      cov := !cov +. ((x -. mx) *. (y -. my));
      vx := !vx +. ((x -. mx) ** 2.0);
      vy := !vy +. ((y -. my) ** 2.0))
    rx ry;
  if !vx = 0.0 || !vy = 0.0 then 0.0 else !cov /. sqrt (!vx *. !vy)

(* ---- seeded inputs

   Integer kernel inputs as a pure function of (seed, operand position,
   element index).  [Ndarray.random_for_tensor] also hashes the tensor's
   process-global id, which shifts whenever the pipeline creates tensors
   in another order — fine inside one process, useless for digests
   pinned across commits.  Value ranges match it: unsigned 0..8, signed
   -4..4, so no accumulator can overflow. *)
let seeded_input ~seed ~operand (t : Unit_dsl.Tensor.t) =
  let dtype = t.Unit_dsl.Tensor.dtype in
  let base = (seed * 0x9e3779b1) lxor (operand * 0x85ebca77) in
  Ndarray.init ~dtype
    ~shape:(Array.to_list t.Unit_dsl.Tensor.shape)
    (fun idx ->
      let h =
        Array.fold_left
          (fun h i ->
            let h = (h lxor i) * 0x100000001b3 in
            h lxor (h lsr 29))
          base idx
      in
      let h = (h lxor (h lsr 31)) land max_int in
      if Dtype.is_signed dtype then Value.of_int dtype ((h mod 9) - 4)
      else Value.of_int dtype (h mod 9))

let op_inputs ~seed (op : Unit_dsl.Op.t) =
  List.mapi (fun i t -> (t, seeded_input ~seed ~operand:i t)) (Unit_dsl.Op.inputs op)

(* ---- failure accounting: each timed operation and each standalone
   check is one attempt; an exception, an error response or a digest
   mismatch fails it *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let fail what =
  if Atomic.fetch_and_add failed 1 < 20 then prerr_endline ("perfbench: FAILED " ^ what)

let check ~what ok =
  Atomic.incr attempted;
  if not ok then fail what

(* Run [f] as one attempt; an exception fails it and yields [None]. *)
let attempt ~what f =
  Atomic.incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
    fail (what ^ ": " ^ Printexc.to_string e);
    None

(* ---- the run directory: everything a run writes (stores, socket,
   compiler scratch) lives under it, relative to the checkout *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- results *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
}

let m name unit_ value = { name; unit_; value }

(* One timed operation.  [cls] names the headline class the sample
   belongs to ([None]: measured but not part of the headline, e.g. the
   scalar reference rows); [warm] says its key had already completed ok
   earlier in the run. *)
type op = {
  cls : string option;
  key : string;
  ms : float;
  warm : bool;
}

type table_row = string * float (* label, ms *)

type prepared = {
  compile_s : float;  (** the cold compile, the last step of set-up *)
  loop : seconds:float -> min_rounds:int -> op list;
      (** the timed phase; may run more than once (the traced run splits
          it into an untraced and a traced half) *)
  finish : unit -> unit;  (** post-run correctness replays and teardown *)
  report : op list -> metric list;
      (** the workload's own headline figures, for the text report *)
  layers : op list -> wall_s:float -> metric list * float * table_row list;
      (** the workload's own per-layer metrics, and the measured total
          (ms) of its traced timed phase with the rows attributing it —
          the last row is the residual, so the rows sum to the total —
          from the traced ops and Obs *)
}

(* ---- per-layer readers over the program's own spans and counters *)

let span_aggs () = Obs.aggregate_spans (Obs.spans ())

let span_total_ms ?(aggs = span_aggs ()) name =
  List.fold_left
    (fun acc (a : Obs.agg) ->
      if String.equal a.Obs.agg_name name then acc +. (a.Obs.agg_total *. 1e3) else acc)
    0.0 aggs

let span_count ?(aggs = span_aggs ()) name =
  List.fold_left
    (fun acc (a : Obs.agg) ->
      if String.equal a.Obs.agg_name name then acc + a.Obs.agg_count else acc)
    0 aggs

let counter name =
  match List.assoc_opt name (Obs.counters ()) with Some v -> v | None -> 0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* The layers every workload passes through: tensorization (inspect,
   reorganize, tune, lower+replace, analyze) and native emission. *)
let common_layers () =
  let aggs = span_aggs () in
  let ms = span_total_ms ~aggs in
  let compiles = span_count ~aggs "emit.compile" in
  [ m "pipeline.tensorize_ms" "ms" (ms "tensorize");
    m "inspector.inspect_ms" "ms" (ms "tensorize.inspect");
    m "rewriter.reorganize_ms" "ms" (ms "tensorize.reorganize");
    m "rewriter.tune_ms" "ms" (ms "tensorize.tune");
    m "rewriter.lower_replace_ms" "ms" (ms "tensorize.lower_replace");
    m "analysis.check_ms" "ms" (ms "tensorize.analyze");
    m "rewriter.candidates" "count" (float_of_int (counter "tuner.candidates"));
    m "codegen.emit.render_ms" "ms" (ms "emit.render");
    m "codegen.emit.compile_ms" "ms" (ms "emit.compile");
    m "codegen.emit.dynlink_ms" "ms" (ms "emit.dynlink");
    m "codegen.emit.prepare_ms" "ms"
      (if compiles = 0 then 0.0
       else (ms "emit.compile" +. ms "emit.dynlink") /. float_of_int compiles);
    m "codegen.emit.compiles" "count" (float_of_int compiles);
    m "pipeline.cache_hit_ratio" "ratio"
      (ratio (counter "pipeline.cache.hit")
         (counter "pipeline.cache.hit" + counter "pipeline.cache.miss"));
    m "store.hit_ratio" "ratio"
      (ratio (counter "store.disk.hit")
         (counter "store.disk.hit" + counter "store.disk.miss"));
    m "store.appends" "count" (float_of_int (counter "store.append"))
  ]

(* Compile-phase table: span time summed across domains per stage.  The
   warm-up fans across domains, so these may exceed the wall clock. *)
let compile_table () =
  let aggs = span_aggs () in
  let ms = span_total_ms ~aggs in
  [ ("pipeline.tensorize", ms "tensorize");
    ("codegen.emit.render", ms "emit.render");
    ("codegen.emit.compile", ms "emit.compile");
    ("codegen.emit.dynlink", ms "emit.dynlink");
    ("codegen.closure_compile", ms "codegen.compile")
  ]

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
    | line ->
      (match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
       | Some kb -> float_of_int kb /. 1024.0
       | None -> go ())
  in
  go ()
