(** Adaptor pass 1: legalize modern intrinsics into constructs the
    HLS-readable (LLVM-7-era) dialect understands.

    - [llvm.smax/smin/umax/umin] → [icmp] + [select]
    - [llvm.abs]                 → [icmp] + [sub] + [select]
    - [llvm.fmuladd]/[llvm.fma]  → [fmul] + [fadd]
    - [llvm.lifetime.*], [llvm.assume], [llvm.experimental.*] → dropped
    - [freeze]                   → forwarded to its operand *)

open Llvmir
open Linstr
module Sym = Support.Interner

type stats = {
  mutable minmax : int;
  mutable fmuladd : int;
  mutable dropped : int;
  mutable freezes : int;
}

let fresh_stats () = { minmax = 0; fmuladd = 0; dropped = 0; freezes = 0 }

(* Cheap pre-scan: a function with no freeze and no modern intrinsic
   takes none of the rewrites below, so the whole rewrite/substitute/
   DCE machinery (and its per-function index builds) can be skipped.
   Functions that do need work go through the original path
   unchanged. *)
let needs_work (f : Lmodule.func) : bool =
  List.exists
    (fun (b : Lmodule.block) ->
      List.exists
        (fun (i : Linstr.t) ->
          match i.op with
          | Freeze _ -> true
          | Call { callee; _ } -> Hls_names.is_modern_intrinsic callee
          | _ -> false)
        b.insts)
    f.blocks

let run_func ~stats ~am (f : Lmodule.func) : Lmodule.func =
  if not (needs_work f) then f
  else
  let names = Lmodule.namegen f in
  let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 16 in
  let dropped_here = ref false in
  let rw (i : Linstr.t) : Linstr.t list =
    match i.op with
    | Freeze v ->
        stats.freezes <- stats.freezes + 1;
        Sym.Tbl.replace subst i.result v;
        []
    | Call { callee; args; ret } when Hls_names.is_modern_intrinsic callee -> (
        let mk ~result ~ty op = Linstr.make ~result ~ty op in
        match args with
        | [ a; b ]
          when String.starts_with ~prefix:"llvm.smax." callee
               || String.starts_with ~prefix:"llvm.umax." callee
               || String.starts_with ~prefix:"llvm.smin." callee
               || String.starts_with ~prefix:"llvm.umin." callee ->
            (* unsigned variants must compare unsigned: lowering umax
               through sgt miscompares once an operand's sign bit is
               set *)
            let pred =
              if String.starts_with ~prefix:"llvm.smax." callee then ISgt
              else if String.starts_with ~prefix:"llvm.umax." callee then IUgt
              else if String.starts_with ~prefix:"llvm.smin." callee then ISlt
              else IUlt
            in
            stats.minmax <- stats.minmax + 1;
            let c = Support.Namegen.fresh names (result_name i ^ ".cmp") in
            [
              mk ~result:c ~ty:Ltype.I1 (Icmp (pred, a, b));
              mk ~result:(result_name i) ~ty:ret
                (Select (Lvalue.reg c Ltype.I1, a, b));
            ]
        | [ a; _poison ] when String.starts_with ~prefix:"llvm.abs." callee ->
            stats.minmax <- stats.minmax + 1;
            let ty = Lvalue.type_of a in
            let neg = Support.Namegen.fresh names (result_name i ^ ".neg") in
            let c = Support.Namegen.fresh names (result_name i ^ ".cmp") in
            [
              mk ~result:neg ~ty (IBin (Sub, Lvalue.ci ~ty 0, a));
              mk ~result:c ~ty:Ltype.I1 (Icmp (ISlt, a, Lvalue.ci ~ty 0));
              mk ~result:(result_name i) ~ty:ret
                (Select
                   (Lvalue.reg c Ltype.I1, Lvalue.reg neg ty, a));
            ]
        | [ a; b; c ]
          when String.starts_with ~prefix:"llvm.fmuladd." callee
               || String.starts_with ~prefix:"llvm.fma." callee ->
            stats.fmuladd <- stats.fmuladd + 1;
            let ty = Lvalue.type_of a in
            let m = Support.Namegen.fresh names (result_name i ^ ".mul") in
            [
              mk ~result:m ~ty (FBin (FMul, a, b));
              mk ~result:(result_name i) ~ty:ret
                (FBin (FAdd, Lvalue.reg m ty, c));
            ]
        | _
          when String.starts_with ~prefix:"llvm.lifetime." callee
               || String.starts_with ~prefix:"llvm.assume" callee
               || String.starts_with ~prefix:"llvm.experimental." callee ->
            stats.dropped <- stats.dropped + 1;
            dropped_here := true;
            []
        | _ ->
            (* unknown modern intrinsic: keep; the compat checker will
               report it *)
            [ i ])
    | _ -> [ i ]
  in
  let f' = Lmodule.rewrite_insts rw f in
  let f' = Findex.substitute_func subst f' in
  (* only a dropped call ([llvm.assume], lifetime markers) can orphan
     its operand chain — the min/max/abs/fmuladd/freeze rewrites
     replace a value in place, every operand they forward was already
     live.  The cleanup DCE (and its per-function index build) is pure
     overhead unless something was dropped; [am] caches the index it
     builds, so the post-pass verifier reuses it, and the rewrite kept
     the block skeleton, so the CFG and dominator tree carry over *)
  if !dropped_here then begin
    Analysis.rewritten am f';
    Opt_dce.run_func ~am f'
  end
  else f'

let run ~stats ~am (m : Lmodule.t) : Lmodule.t =
  let m = Lmodule.map_funcs (run_func ~stats ~am) m in
  (* prune declarations of now-unused modern intrinsics *)
  let used = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Lmodule.iter_insts
        (fun i ->
          match i.op with
          | Call { callee; _ } -> Hashtbl.replace used callee ()
          | _ -> ())
        f)
    m.funcs;
  {
    m with
    decls =
      List.filter
        (fun (d : Lmodule.decl) ->
          Hashtbl.mem used d.dname || not (Hls_names.is_modern_intrinsic d.dname))
        m.decls;
  }
