(** Recognition of the directive markers and legality rules of the
    simulated Vitis HLS front door.

    This module is deliberately independent from the adaptor library:
    it models what the {e tool} accepts, and the adaptor targets it. *)

let spec_pipeline = "_ssdm_op_SpecPipeline"
let spec_unroll = "_ssdm_op_SpecUnroll"
let spec_trip_count = "_ssdm_op_SpecLoopTripCount"

let is_marker name = String.starts_with ~prefix:"_ssdm_op_" name

(** Intrinsics this (LLVM-7-era) middle-end understands. *)
let is_known_intrinsic name =
  String.starts_with ~prefix:"llvm.sqrt." name
  || String.starts_with ~prefix:"llvm.fabs." name

(** Reject IR outside the HLS-readable subset — the "unsupported
    syntax" gate that motivates the adaptor.  Returns the list of
    reasons (empty = accepted). *)
let legality_errors (m : Llvmir.Lmodule.t) : string list =
  let open Llvmir in
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let rec opaque t =
    match t with
    | Ltype.Ptr None -> true
    | Ltype.Ptr (Some t) | Ltype.Array (_, t) -> opaque t
    | Ltype.Struct fs -> List.exists opaque fs
    | _ -> false
  in
  List.iter
    (fun (f : Lmodule.func) ->
      List.iter
        (fun (p : Lmodule.param) ->
          if opaque p.pty then
            add "@%s: opaque pointer parameter %%%s" f.fname p.pname)
        f.params;
      Lmodule.iter_insts
        (fun (i : Linstr.t) ->
          if Linstr.has_result i && opaque i.ty then
            add "@%s: opaque pointer value %%%s" f.fname (Linstr.result_name i);
          (match i.op with
          | Linstr.Freeze _ ->
              add "@%s: freeze instruction %%%s" f.fname (Linstr.result_name i)
          | Linstr.InsertValue _ | Linstr.ExtractValue _ ->
              add "@%s: aggregate SSA value %%%s (memref descriptor?)"
                f.fname (Linstr.result_name i)
          | Linstr.Call { callee; _ }
            when String.starts_with ~prefix:"llvm." callee
                 && not (is_known_intrinsic callee) ->
              add "@%s: unsupported intrinsic %s" f.fname callee
          | _ -> ());
          List.iter
            (fun (k, _) ->
              if String.starts_with ~prefix:"llvm.loop." k then
                add "@%s: unsupported loop metadata %s" f.fname k)
            i.Linstr.imeta)
        f)
    m.funcs;
  List.rev !errs
