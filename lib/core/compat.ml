(** Adaptor pass 7 (analysis): the HLS compatibility checker.

    Enumerates every construct outside the HLS-readable LLVM subset —
    exactly the "gap of unsupported syntax between different versions"
    the paper's adaptor closes.  Runs standalone on raw MLIR-lowered IR
    (Table 1's "before" column) and as the adaptor's final gate
    ("after" must be zero). *)

open Llvmir
open Linstr

type issue_kind =
  | Opaque_pointer  (** any [ptr]-typed value *)
  | Memref_descriptor  (** descriptor-shaped aggregate *)
  | Modern_intrinsic of string
  | Freeze_inst
  | Modern_loop_metadata of string
  | Unsupported_aggregate_op  (** insert/extractvalue beyond descriptors *)

type issue = { kind : issue_kind; where : string; detail : string }

let kind_name = function
  | Opaque_pointer -> "opaque-pointer"
  | Memref_descriptor -> "memref-descriptor"
  | Modern_intrinsic _ -> "modern-intrinsic"
  | Freeze_inst -> "freeze"
  | Modern_loop_metadata _ -> "loop-metadata"
  | Unsupported_aggregate_op -> "aggregate-op"

(** How bad is each issue for the HLS middle-end?  Untranslated loop
    metadata merely loses directives (the IR still parses); everything
    else makes the input unreadable. *)
let issue_severity (k : issue_kind) : Support.Err.severity =
  match k with
  | Modern_loop_metadata _ -> Support.Err.Warning
  | Opaque_pointer | Memref_descriptor | Modern_intrinsic _ | Freeze_inst
  | Unsupported_aggregate_op ->
      Support.Err.Error

(** Stable lint rule ID for each issue kind (the [HLS10x] family). *)
let rule_id = function
  | Opaque_pointer -> "HLS101"
  | Memref_descriptor -> "HLS102"
  | Modern_intrinsic _ -> "HLS103"
  | Freeze_inst -> "HLS104"
  | Modern_loop_metadata _ -> "HLS105"
  | Unsupported_aggregate_op -> "HLS106"

let issue_to_string i =
  Printf.sprintf "%-7s %-18s %-24s %s"
    (Support.Err.severity_name (issue_severity i.kind))
    (kind_name i.kind) i.where i.detail

let issue_hint = function
  | Opaque_pointer -> "enable the typed-pointers adaptor pass"
  | Memref_descriptor -> "enable descriptor elimination"
  | Modern_intrinsic n -> "legalize intrinsic " ^ n
  | Freeze_inst -> "enable intrinsic legalization (freeze is folded away)"
  | Modern_loop_metadata k ->
      "enable metadata translation to turn " ^ k ^ " into _ssdm markers"
  | Unsupported_aggregate_op ->
      "only memref-descriptor aggregates can be eliminated"

(** One compat issue as an accumulating diagnostic. *)
let to_diagnostic (i : issue) : Support.Diag.t =
  let func =
    if String.length i.where > 0 && i.where.[0] = '@' then
      Some (String.sub i.where 1 (String.length i.where - 1))
    else None
  in
  {
    Support.Diag.rule = rule_id i.kind;
    severity = Support.Diag.of_err_severity (issue_severity i.kind);
    func;
    location = None;
    message = Printf.sprintf "%s: %s" (kind_name i.kind) i.detail;
    hint = Some (issue_hint i.kind);
  }

let to_diagnostics (issues : issue list) : Support.Diag.t list =
  List.map to_diagnostic issues

let rec has_opaque (t : Ltype.t) =
  match t with
  | Ltype.Ptr None -> true
  | Ltype.Ptr (Some t) -> has_opaque t
  | Ltype.Array (_, t) -> has_opaque t
  | Ltype.Struct fs -> List.exists has_opaque fs
  | _ -> false

let is_descriptor_ty (t : Ltype.t) =
  match t with
  | Ltype.Struct
      [ Ltype.Ptr _; Ltype.Ptr _; Ltype.I64;
        Ltype.Array (r1, Ltype.I64); Ltype.Array (r2, Ltype.I64) ] ->
      r1 = r2
  | _ -> false

let check_func (f : Lmodule.func) : issue list =
  let issues = ref [] in
  let add kind detail =
    issues := { kind; where = "@" ^ f.fname; detail } :: !issues
  in
  List.iter
    (fun (p : Lmodule.param) ->
      if has_opaque p.pty then
        add Opaque_pointer (Printf.sprintf "parameter %%%s : ptr" p.pname))
    f.params;
  Lmodule.iter_insts
    (fun (i : Linstr.t) ->
      if has_result i && has_opaque i.ty then
        add Opaque_pointer (Printf.sprintf "%%%s : ptr" (result_name i));
      if has_result i && is_descriptor_ty i.ty then
        add Memref_descriptor (Printf.sprintf "%%%s" (result_name i));
      (match i.op with
      | Freeze _ -> add Freeze_inst (Printf.sprintf "%%%s" (result_name i))
      | Call { callee; _ } when Hls_names.is_modern_intrinsic callee ->
          add (Modern_intrinsic callee) callee
      | ExtractValue (agg, _) | InsertValue (agg, _, _) ->
          if not (is_descriptor_ty (Lvalue.type_of agg)) then
            add Unsupported_aggregate_op
              (Printf.sprintf "%%%s" (result_name i))
      | _ -> ());
      List.iter
        (fun (k, _) ->
          if Hls_names.is_loop_md k then add (Modern_loop_metadata k) k)
        i.imeta)
    f;
  List.rev !issues

let check (m : Lmodule.t) : issue list =
  List.concat_map check_func m.funcs

(** Histogram of issue kinds (for Table 1). *)
let summarize (issues : issue list) : (string * int) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let k = kind_name i.kind in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    issues;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
