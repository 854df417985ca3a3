type rule =
  | Scope
  | Bounds
  | Canonical
  | Tile
  | Race
  | Carried_dep
  | Tensorize_footprint
  | Overflow
  | Store
  | Mem_plan
  | Emit
  | Isa_pack
  | Io

type severity =
  | Error
  | Warning

type t = {
  rule : rule;
  severity : severity;
  detail : string;
}

let rule_id = function
  | Scope -> "scope"
  | Bounds -> "bounds"
  | Canonical -> "canonical"
  | Tile -> "tile"
  | Race -> "race"
  | Carried_dep -> "dep-carried"
  | Tensorize_footprint -> "tensorize-footprint"
  | Overflow -> "overflow"
  | Store -> "store"
  | Mem_plan -> "mem-plan"
  | Emit -> "emit"
  | Isa_pack -> "isa-pack"
  | Io -> "io"

let errorf rule fmt =
  Printf.ksprintf (fun detail -> { rule; severity = Error; detail }) fmt

let warnf rule fmt =
  Printf.ksprintf (fun detail -> { rule; severity = Warning; detail }) fmt

let is_error t = t.severity = Error
let errors ts = List.filter is_error ts
let warnings ts = List.filter (fun t -> not (is_error t)) ts

let pp fmt t =
  match t.severity with
  | Error -> Format.fprintf fmt "[%s] %s" (rule_id t.rule) t.detail
  | Warning -> Format.fprintf fmt "[%s] warning: %s" (rule_id t.rule) t.detail

let to_string t = Format.asprintf "%a" pp t
