(* The unitc and unitd binaries on bad file paths: every --store /
   --trace-out / --trace-file / --isa-pack flag of every command must
   answer an unreadable or unwritable path with a structured diagnostic
   and exit 1 — never an uncaught exception — and a bad output path must
   be caught before the command does any work. *)

let bin name = Filename.concat (Filename.concat Filename.parent_dir_name "bin") name
let unitc = bin "unitc.exe"
let unitd = bin "unitd.exe"

(* A path under a directory that does not exist. *)
let missing name =
  Filename.concat
    (Filename.concat (Filename.get_temp_dir_name ()) "unitc-no-such-dir")
    name

let store = missing "s.jsonl"
let trace = missing "t.json"
let pack = missing "p.uisa"
let conv = [ "--op"; "conv2d"; "--ic"; "16"; "--hw"; "8"; "--oc"; "32" ]

(* A writable store path; the rows that use it fail before creating it. *)
let good_store () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "unitc_cli_%d.jsonl" (Unix.getpid ()))

let socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "unitd_cli_%d.sock" (Unix.getpid ()))

(* (name, arguments, rule the diagnostic must carry) *)
let unitc_rows () =
  [ ("run --store", ("run" :: conv) @ [ "--store"; store ], "io");
    ("run --trace-out", ("run" :: conv) @ [ "--trace-out"; trace ], "io");
    ("run --isa-pack", ("run" :: conv) @ [ "--isa-pack"; pack ], "isa-pack");
    ("check --store", [ "check"; "--store"; store ], "io");
    ("check --isa-pack", [ "check"; "--isa-pack"; pack ], "isa-pack");
    ("profile --store", [ "profile"; "table1:5"; "--no-exec"; "--store"; store ], "io");
    ( "profile --trace-out",
      [ "profile"; "table1:5"; "--no-exec"; "--trace-out"; trace ],
      "io" );
    ( "profile --isa-pack",
      [ "profile"; "table1:5"; "--no-exec"; "--isa-pack"; pack ],
      "isa-pack" );
    ("warmup --store", [ "warmup"; "table1:3"; "--store"; store ], "io");
    ( "warmup --trace-out",
      [ "warmup"; "table1:3"; "--store"; good_store (); "--trace-out"; trace ],
      "io" );
    ( "warmup --isa-pack",
      [ "warmup"; "table1:3"; "--store"; good_store (); "--isa-pack"; pack ],
      "isa-pack" );
    ("explain --isa-pack", [ "explain"; "table1:3"; "--isa-pack"; pack ], "isa-pack");
    ("memplan --isa-pack", [ "memplan"; "resnet18"; "--isa-pack"; pack ], "isa-pack");
    ("isa list --isa-pack", [ "isa"; "list"; "--isa-pack"; pack ], "isa-pack");
    ( "isa show --isa-pack",
      [ "isa"; "show"; "vnni.vpdpbusd"; "--isa-pack"; pack ],
      "isa-pack" )
  ]

let unitd_rows () =
  [ ("serve --store", [ "serve"; "--socket"; socket (); "--store"; store ], "io");
    ( "serve --trace-out",
      [ "serve"; "--socket"; socket (); "--trace-out"; trace ],
      "io" );
    ( "serve --isa-pack",
      [ "serve"; "--socket"; socket (); "--isa-pack"; pack ],
      "isa-pack" );
    ("smoke --store", [ "smoke"; "--store"; store ], "io");
    ("smoke --trace-out", [ "smoke"; "--trace-out"; trace ], "io");
    ("metrics-smoke --store", [ "metrics-smoke"; "--store"; store ], "io");
    ("metrics-smoke --trace-file", [ "metrics-smoke"; "--trace-file"; trace ], "io")
  ]

let rows () =
  let tag prog exe = List.map (fun (name, args, rule) -> (prog ^ " " ^ name, exe, args, rule)) in
  tag "unitc" unitc (unitc_rows ()) @ tag "unitd" unitd (unitd_rows ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [exe], returning (exit code, stdout, stderr); a run still going
   after a minute is killed and reported as exit -1. *)
let run exe args =
  let out = Filename.temp_file "unitc_cli" ".out" in
  let err = Filename.temp_file "unitc_cli" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let fo = fd out and fe = fd err in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fo fe in
  Unix.close fo;
  Unix.close fe;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      -1
    | _, Unix.WEXITED rc -> rc
    | _ -> -1
  in
  let rc = wait () in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (rc, o, e)

let test_row (name, exe, args, rule) () =
  let rc, out, err = run exe args in
  let ctx what = Printf.sprintf "%s: %s (stderr: %s)" name what err in
  Alcotest.(check int) (ctx "exit 1") 1 rc;
  Alcotest.(check bool)
    (ctx ("structured [" ^ rule ^ "] diagnostic"))
    true
    (contains err (": [" ^ rule ^ "]"));
  Alcotest.(check bool) (ctx "no uncaught exception") false
    (contains err "exception" || contains out "exception");
  if contains name "--trace-" then
    Alcotest.(check string) (ctx "no work done before the check") "" out

let () =
  Alcotest.run "cli"
    [ ( "bad paths",
        List.map
          (fun ((name, _, _, _) as row) -> Alcotest.test_case name `Quick (test_row row))
          (rows ()) )
    ]
