(** Imperative function builder used by the MLIR lowering and the
    mini-C front-end.  Tracks the current block, generates fresh SSA
    names, and returns [Lvalue.t]s for instruction results. *)

open Linstr
module Sym = Support.Interner

type t = {
  names : Support.Namegen.t;
  mutable cur_label : string option;
  mutable cur_insts : Linstr.t list;  (** reversed *)
  mutable blocks : Lmodule.block list;  (** reversed, finished blocks *)
}

let create () =
  { names = Support.Namegen.create (); cur_label = None; cur_insts = []; blocks = [] }

let fresh_name b base = Support.Namegen.fresh b.names base

let fresh_label b base = Support.Namegen.fresh b.names base

(** Begin a new block.  Any open block must have been terminated. *)
let start_block b label =
  (match b.cur_label with
  | Some l ->
      Support.Err.fail ~pass:"lbuilder"
        "start_block %s: block %s is still open (missing terminator)" label l
  | None -> ());
  b.cur_label <- Some label

let in_block b = b.cur_label <> None

let emit b (i : Linstr.t) =
  (match b.cur_label with
  | None -> Support.Err.fail ~pass:"lbuilder" "emit outside of a block"
  | Some _ -> ());
  b.cur_insts <- i :: b.cur_insts;
  if Linstr.is_terminator i then begin
    let label = Option.get b.cur_label in
    b.blocks <-
      { Lmodule.label = Sym.intern label; insts = List.rev b.cur_insts }
      :: b.blocks;
    b.cur_label <- None;
    b.cur_insts <- []
  end

(** Emit an instruction producing a value. *)
let emit_value b ?(name = "t") ty op =
  let result = fresh_name b name in
  emit b (Linstr.make ~result ~ty op);
  Lvalue.reg result ty

let finish b : Lmodule.block list =
  (match b.cur_label with
  | Some l ->
      Support.Err.fail ~pass:"lbuilder" "finish: block %s not terminated" l
  | None -> ());
  List.rev b.blocks

(* ------------------------------------------------------------------ *)
(* Typed helpers                                                       *)
(* ------------------------------------------------------------------ *)

let ibin b op x y = emit_value b (Lvalue.type_of x) (IBin (op, x, y))
let fbin b op x y = emit_value b (Lvalue.type_of x) (FBin (op, x, y))
let icmp b p x y = emit_value b Ltype.I1 (Icmp (p, x, y))
let fcmp b p x y = emit_value b Ltype.I1 (Fcmp (p, x, y))
let select b c x y = emit_value b (Lvalue.type_of x) (Select (c, x, y))

let alloca b ~name elem_ty =
  emit_value b ~name (Ltype.ptr elem_ty) (Alloca (elem_ty, 1))

(** Alloca producing an opaque pointer (modern lowering style). *)
let alloca_opaque b ~name elem_ty =
  emit_value b ~name Ltype.opaque_ptr (Alloca (elem_ty, 1))

let load b ty ptr = emit_value b ty (Load (ty, ptr))
let store b v ptr = emit b (Linstr.make (Store (v, ptr)))

let gep b ?(opaque = false) ~src_ty base idxs =
  (* Result pointer type: walk [src_ty] through the trailing indices. *)
  let rec walk ty = function
    | [] -> ty
    | idx :: rest ->
        walk (Ltype.gep_step ty (Lvalue.const_int_value idx)) rest
  in
  let pointee =
    match idxs with
    | [] -> src_ty
    | _ :: rest -> walk src_ty rest
  in
  let ty = if opaque then Ltype.opaque_ptr else Ltype.ptr pointee in
  emit_value b ty (Gep { inbounds = true; src_ty; base; idxs })

let cast b c v ty = emit_value b ty (Cast (c, v, ty))

let call b ~ret callee args =
  if Ltype.equal ret Ltype.Void then begin
    emit b (Linstr.make (Call { callee; ret; args }));
    Lvalue.Const (Lvalue.CUndef Ltype.Void)
  end
  else emit_value b ~name:"call" ret (Call { callee; ret; args })

let extractvalue b agg path ty = emit_value b ty (ExtractValue (agg, path))

let insertvalue b agg v path =
  emit_value b (Lvalue.type_of agg) (InsertValue (agg, v, path))

let phi b ~name ty incoming =
  emit_value b ~name ty
    (Phi (List.map (fun (v, l) -> (v, Sym.intern l)) incoming))

let br b label = emit b (Linstr.make (Br (Sym.intern label)))
let condbr b c t e =
  emit b (Linstr.make (CondBr (c, Sym.intern t, Sym.intern e)))
let ret b v = emit b (Linstr.make (Ret v))
let ret_void b = ret b None

(** Attach metadata to the most recently emitted instruction. *)
let annotate_last b (kvs : (string * Linstr.meta) list) =
  match b.cur_insts with
  | i :: rest -> b.cur_insts <- { i with imeta = i.imeta @ kvs } :: rest
  | [] -> (
      (* last instruction closed a block *)
      match b.blocks with
      | blk :: bs -> (
          match List.rev blk.insts with
          | i :: tl ->
              b.blocks <-
                { blk with insts = List.rev ({ i with imeta = i.imeta @ kvs } :: tl) }
                :: bs
          | [] -> ())
      | [] -> ())
