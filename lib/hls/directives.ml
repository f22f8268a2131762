(** Extraction of synthesis directives from HLS-readable IR:
    loop markers ([_ssdm_op_Spec*] calls in loop headers) and array
    interface/partition attributes on top-function parameters. *)

open Llvmir
open Linstr

type loop_directives = {
  pipeline_ii : int option;  (** requested initiation interval *)
  unroll : int option;  (** factor; [Some 0] = full unroll *)
  tripcount : int option;
}

let no_directives = { pipeline_ii = None; unroll = None; tripcount = None }

(** Directives of loop [j]: marker calls in its header block. *)
let loop_directives (cfg : Cfg.t) (li : Loop_info.t) (j : int) :
    loop_directives =
  let l = li.Loop_info.loops.(j) in
  let header = Cfg.block cfg l.Loop_info.header in
  List.fold_left
    (fun acc (i : Linstr.t) ->
      match i.op with
      | Call { callee; args; _ } when callee = Adaptor_markers.spec_pipeline
        -> (
          match args with
          | [ Lvalue.Const (Lvalue.CInt (ii, _)) ] ->
              { acc with pipeline_ii = Some (max 1 ii) }
          | _ -> { acc with pipeline_ii = Some 1 })
      | Call { callee; args; _ } when callee = Adaptor_markers.spec_unroll -> (
          match args with
          | [ Lvalue.Const (Lvalue.CInt (f, _)) ] -> { acc with unroll = Some f }
          | _ -> acc)
      | Call { callee; args; _ } when callee = Adaptor_markers.spec_trip_count
        -> (
          match args with
          | [ Lvalue.Const (Lvalue.CInt (n, _)) ] ->
              { acc with tripcount = Some n }
          | _ -> acc)
      | _ -> acc)
    no_directives header.Lmodule.insts

(* ------------------------------------------------------------------ *)
(* Arrays                                                             *)
(* ------------------------------------------------------------------ *)

type array_info = {
  aname : string;  (** root register name (parameter or alloca) *)
  dims : int list;  (** [ [] ] for scalar pointers *)
  elem_bits : int;
  partition_factor : int;  (** 1 = unpartitioned *)
  partition_kind : string;  (** "cyclic" | "block" | "complete" | "none" *)
  partition_dim : int;
  local : bool;  (** alloca (counts toward BRAM usage) *)
}

(** Memory ports available per cycle (true dual-port BRAM × partitions;
    "complete" partitioning registers the array — effectively unlimited
    ports). *)
let ports (a : array_info) =
  if a.partition_kind = "complete" then 1024
  else 2 * max 1 a.partition_factor

let rec array_dims (t : Ltype.t) =
  match t with
  | Ltype.Array (n, elt) ->
      let dims, eb = array_dims elt in
      (n :: dims, eb)
  | t -> ([], 8 * max 1 (Ltype.sizeof t))

let total_elems (a : array_info) = List.fold_left ( * ) 1 a.dims

(** Collect the arrays of a function: pointer parameters and local
    allocas of aggregate type. *)
let arrays (f : Lmodule.func) : array_info list =
  let of_param (p : Lmodule.param) =
    match p.pty with
    | Ltype.Ptr (Some pointee) ->
        let dims, elem_bits = array_dims pointee in
        let get k = List.assoc_opt k p.pattrs in
        let factor =
          match get "fpga.partition.factor" with
          | Some s -> Option.value ~default:1 (int_of_string_opt s)
          | None -> 1
        in
        let kind =
          Option.value ~default:(if factor > 1 then "cyclic" else "none")
            (get "fpga.partition.kind")
        in
        let dim =
          match get "fpga.partition.dim" with
          | Some s -> Option.value ~default:1 (int_of_string_opt s)
          | None -> 1
        in
        (* A partition directive is only effective when the array view
           still has the dimension it names — a flattened (1-D) view of
           a multi-dimensional array cannot honour a dim>0 partition
           of the original shape (the shape information is gone).
           This is where descriptor elimination pays off. *)
        let effective_factor =
          if factor <= 1 then 1
          else if kind = "complete" then factor
          else if dim >= 1 && dim <= List.length dims then factor
          else 1
        in
        Some
          {
            aname = p.pname;
            dims;
            elem_bits;
            partition_factor = effective_factor;
            partition_kind = (if effective_factor > 1 || kind = "complete" then kind else "none");
            partition_dim = dim;
            local = false;
          }
    | _ -> None
  in
  let params = List.filter_map of_param f.params in
  let locals = ref [] in
  Lmodule.iter_insts
    (fun (i : Linstr.t) ->
      match i.op with
      | Alloca ((Ltype.Array _ as ty), _) when has_result i ->
          let dims, elem_bits = array_dims ty in
          locals :=
            {
              aname = result_name i;
              dims;
              elem_bits;
              partition_factor = 1;
              partition_kind = "none";
              partition_dim = 1;
              local = true;
            }
            :: !locals
      | _ -> ())
    f;
  params @ List.rev !locals
