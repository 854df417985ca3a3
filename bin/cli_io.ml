(* File-I/O failures on paths named on the command line, shared by
   unitc and unitd: a structured [io] diagnostic and exit 1, never an
   uncaught exception. *)

module Diag = Unit_tir.Diag

let prog = Filename.remove_extension (Filename.basename Sys.executable_name)

let die fmt =
  Printf.ksprintf
    (fun detail ->
      prerr_endline (prog ^ ": " ^ Diag.to_string (Diag.errorf Diag.Io "%s" detail));
      exit 1)
    fmt

(* Run [f], turning the I/O failures of a path given as [flag] into a
   diagnostic. *)
let guard flag f =
  try f () with
  | Sys_error e -> die "%s: %s" flag e
  | Unix.Unix_error (err, _, arg) -> die "%s: %s: %s" flag arg (Unix.error_message err)

(* Fail before any work when an output file cannot be written, so a bad
   path costs nothing.  The probe leaves an existing file untouched and
   removes one it had to create. *)
let check_writable flag path =
  let existed = Sys.file_exists path in
  guard flag (fun () ->
      close_out (open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path));
  if not existed then try Sys.remove path with Sys_error _ -> ()
