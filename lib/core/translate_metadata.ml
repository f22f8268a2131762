(** Adaptor pass 5: translate modern [!llvm.loop] metadata into the
    Vitis-style [_ssdm_op_Spec*] marker calls the HLS middle-end
    expects.

    For every loop whose latch branch carries [llvm.loop.*] keys, the
    pass inserts marker calls after the phis of the loop header:
    - [llvm.loop.pipeline.ii = n]   → [call void @_ssdm_op_SpecPipeline(i32 n)]
    - [llvm.loop.unroll.count = n]  → [call void @_ssdm_op_SpecUnroll(i32 n)]
    - [llvm.loop.unroll.full]       → [call void @_ssdm_op_SpecUnroll(i32 0)]
      (factor 0 = full, Vitis convention)
    - [llvm.loop.tripcount = n]     → [call void @_ssdm_op_SpecLoopTripCount(i64 n)]
    and strips the metadata. *)

open Llvmir
open Linstr
module Sym = Support.Interner

type stats = { mutable loops : int; mutable markers : int }

let fresh_stats () = { loops = 0; markers = 0 }

let run_func ~stats (f : Lmodule.func) :
    Lmodule.func * Lmodule.decl list =
  (* collect per-header marker lists from latch-branch metadata *)
  let markers : Linstr.t list Sym.Tbl.t = Sym.Tbl.create 8 in
  let decls = ref [] in
  let need name dargs =
    if not (List.exists (fun (d : Lmodule.decl) -> d.dname = name) !decls) then
      decls := { Lmodule.dname = name; dret = Ltype.Void; dargs } :: !decls
  in
  let strip (i : Linstr.t) : Linstr.t =
    let loop_md, other =
      List.partition (fun (k, _) -> Hls_names.is_loop_md k) i.imeta
    in
    if loop_md = [] then i
    else begin
      let header =
        match i.op with
        | Br l -> Some l
        | CondBr (_, t, _) -> Some t
        | _ -> None
      in
      (match header with
      | Some h ->
          stats.loops <- stats.loops + 1;
          let calls =
            List.filter_map
              (fun (k, v) ->
                let mint = function Linstr.MInt n -> n | MStr _ -> 0 in
                if k = Hls_names.md_pipeline_ii then begin
                  need Hls_names.spec_pipeline [ Ltype.I32 ];
                  Some
                    (Linstr.make
                       (Call
                          {
                            callee = Hls_names.spec_pipeline;
                            ret = Ltype.Void;
                            args = [ Lvalue.ci32 (mint v) ];
                          }))
                end
                else if k = Hls_names.md_pipeline_enable then None
                  (* II carries the request; enable alone = II 1 handled below *)
                else if k = Hls_names.md_unroll_count then begin
                  need Hls_names.spec_unroll [ Ltype.I32 ];
                  Some
                    (Linstr.make
                       (Call
                          {
                            callee = Hls_names.spec_unroll;
                            ret = Ltype.Void;
                            args = [ Lvalue.ci32 (mint v) ];
                          }))
                end
                else if k = Hls_names.md_unroll_full then begin
                  need Hls_names.spec_unroll [ Ltype.I32 ];
                  Some
                    (Linstr.make
                       (Call
                          {
                            callee = Hls_names.spec_unroll;
                            ret = Ltype.Void;
                            args = [ Lvalue.ci32 0 ];
                          }))
                end
                else if k = Hls_names.md_tripcount then begin
                  need Hls_names.spec_trip_count [ Ltype.I64 ];
                  Some
                    (Linstr.make
                       (Call
                          {
                            callee = Hls_names.spec_trip_count;
                            ret = Ltype.Void;
                            args = [ Lvalue.ci64 (mint v) ];
                          }))
                end
                else None)
              loop_md
          in
          (* pipeline.enable without an ii key = request II 1 *)
          let calls =
            if
              List.mem_assoc Hls_names.md_pipeline_enable loop_md
              && not (List.mem_assoc Hls_names.md_pipeline_ii loop_md)
            then begin
              need Hls_names.spec_pipeline [ Ltype.I32 ];
              Linstr.make
                (Call
                   {
                     callee = Hls_names.spec_pipeline;
                     ret = Ltype.Void;
                     args = [ Lvalue.ci32 1 ];
                   })
              :: calls
            end
            else calls
          in
          stats.markers <- stats.markers + List.length calls;
          let prev = Option.value ~default:[] (Sym.Tbl.find_opt markers h) in
          Sym.Tbl.replace markers h (prev @ calls)
      | None -> ());
      { i with imeta = other }
    end
  in
  let blocks =
    List.map
      (fun (b : Lmodule.block) ->
        { b with insts = List.map strip b.insts })
      f.blocks
  in
  (* insert markers after the phis of each header *)
  let blocks =
    List.map
      (fun (b : Lmodule.block) ->
        match Sym.Tbl.find_opt markers b.label with
        | None -> b
        | Some calls ->
            let phis, rest =
              let rec split acc = function
                | ({ op = Phi _; _ } as i) :: tl -> split (i :: acc) tl
                | tl -> (List.rev acc, tl)
              in
              split [] b.insts
            in
            { b with insts = phis @ calls @ rest })
      blocks
  in
  ({ f with blocks }, !decls)

let run ~stats (m : Lmodule.t) : Lmodule.t =
  let decls = ref m.decls in
  let funcs =
    List.map
      (fun f ->
        let f', ds = run_func ~stats f in
        List.iter
          (fun (d : Lmodule.decl) ->
            if
              not
                (List.exists
                   (fun (x : Lmodule.decl) -> x.dname = d.dname)
                   !decls)
            then decls := d :: !decls)
          ds;
        f')
      m.funcs
  in
  { m with funcs; decls = !decls }
