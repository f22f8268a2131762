(** MLIR → LLVM IR conversion, mirroring the upstream
    [-convert-{affine,scf,memref,arith,func}-to-llvm] + [mlir-translate]
    path.

    The default {!modern} style reproduces the constructs that make
    MLIR-produced IR unreadable by the Vitis-era LLVM and that the
    paper's adaptor must legalize:
    - {b opaque pointers} ([ptr]) everywhere;
    - {b memref descriptors}: each memref becomes a
      [{ ptr, ptr, i64, [r x i64], [r x i64] }] aggregate built with
      [insertvalue]; loads/stores extract the aligned pointer and index
      it with a {e linearized} flat GEP, erasing the multi-dimensional
      structure;
    - {b modern intrinsics}: [llvm.smax/smin], [llvm.fmuladd] (fused
      from [mulf]+[addf]), [llvm.lifetime.*] around local buffers,
      [llvm.assume] of loop-bound facts;
    - {b loop metadata}: keys on the latch branch carry the HLS
      directives (pipeline II, unroll factor, trip count).

    Memref function arguments use the bare-pointer calling convention
    ([-use-bare-ptr-memref-call-conv]): one pointer parameter per
    memref, repacked into a descriptor in the entry block.

    {!directive_free} leaves the directives out: each latch carries a
    module-unique loop id instead, and functions carry no attributes,
    so every design point of a kernel lowers to one module.
    {!Apply_directives} then writes the directives by loop id (the
    direct-IR flow does so after the cleanup); {!lower_module} is the
    two in a row. *)

open Mhir
module Ltype = Llvmir.Ltype
module Lvalue = Llvmir.Lvalue
module Linstr = Llvmir.Linstr
module Lmodule = Llvmir.Lmodule
module Sym = Support.Interner

let fail = Support.Err.fail ~pass:"lowering"

(** [Modern] is what [mlir-translate] produces today (LLVM 14+
    dialect): opaque pointers, memref descriptors, modern intrinsics,
    lifetime markers and assumes.  [Classic] emits none of them (typed
    pointers, nested-array GEPs, compare-and-select min/max); tests use
    it to cross-check the adaptor against a direct lowering.  Both
    attach the loop metadata. *)
type style = Modern | Classic

let modern = Modern
let classic = Classic

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let rec lower_scalar_ty (t : Types.ty) : Ltype.t =
  match t with
  | Types.I1 -> Ltype.I1
  | Types.I32 -> Ltype.I32
  | Types.I64 | Types.Index -> Ltype.I64
  | Types.F32 -> Ltype.Float
  | Types.F64 -> Ltype.Double
  | Types.Memref _ -> fail "memref is not a scalar type"

(** Nested-array LLVM type of a memref: [memref<4x8xf32>] →
    [[4 x [8 x float]]]. *)
and memref_array_ty (t : Types.ty) : Ltype.t =
  match t with
  | Types.Memref (shape, elem) ->
      List.fold_right
        (fun d acc -> Ltype.Array (d, acc))
        shape
        (lower_scalar_ty elem)
  | _ -> fail "memref_array_ty: not a memref"

(** Descriptor struct type for a rank-[r] memref (modern style). *)
let descriptor_ty (t : Types.ty) : Ltype.t =
  match t with
  | Types.Memref (shape, _) ->
      let rank = List.length shape in
      let p = Ltype.opaque_ptr in
      Ltype.Struct
        [ p; p; Ltype.I64; Ltype.Array (rank, Ltype.I64); Ltype.Array (rank, Ltype.I64) ]
  | _ -> fail "descriptor_ty: not a memref"

(** Row-major strides of a static shape. *)
let strides_of_shape shape =
  let n = List.length shape in
  let arr = Array.of_list shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * arr.(i + 1)
  done;
  Array.to_list strides

(* ------------------------------------------------------------------ *)
(* Conversion state                                                   *)
(* ------------------------------------------------------------------ *)

(** How a lowered memref value is represented. *)
type memref_repr = {
  desc : Lvalue.t option;  (** descriptor aggregate (modern style) *)
  base_ptr : Lvalue.t;  (** data pointer (bare or extracted) *)
  shape : int list;
  elem : Types.ty;
}

type env = {
  style : style;
  b : Llvmir.Lbuilder.t;
  values : (int, Lvalue.t) Hashtbl.t;  (** scalar mhir values *)
  memrefs : (int, memref_repr) Hashtbl.t;
  mutable decls : Llvmir.Lmodule.decl list;
  mutable loop_counter : int;
  loop_ids : int ref;  (** next loop id, shared by the module's functions *)
}

module B = Llvmir.Lbuilder

let bind env (v : Ir.value) (lv : Lvalue.t) = Hashtbl.replace env.values v.Ir.id lv

let lookup env (v : Ir.value) : Lvalue.t =
  match Hashtbl.find_opt env.values v.Ir.id with
  | Some lv -> lv
  | None -> fail "value %%%d has no lowered binding" v.Ir.id

let lookup_memref env (v : Ir.value) : memref_repr =
  match Hashtbl.find_opt env.memrefs v.Ir.id with
  | Some r -> r
  | None -> fail "memref %%%d has no lowered representation" v.Ir.id

let need_decl env (d : Llvmir.Lmodule.decl) =
  if not (List.exists (fun (x : Llvmir.Lmodule.decl) -> x.dname = d.dname) env.decls)
  then env.decls <- d :: env.decls

(* ------------------------------------------------------------------ *)
(* Descriptor construction                                            *)
(* ------------------------------------------------------------------ *)

(** Pack a bare data pointer into a full descriptor with static
    shape/stride fields — the [insertvalue] chain MLIR emits. *)
let build_descriptor env (mty : Types.ty) (data : Lvalue.t) : Lvalue.t =
  let dty = descriptor_ty mty in
  let shape, _elem =
    match mty with
    | Types.Memref (s, e) -> (s, e)
    | _ -> fail "build_descriptor: not a memref"
  in
  let strides = strides_of_shape shape in
  let agg = Lvalue.Const (Lvalue.CUndef dty) in
  let agg = B.insertvalue env.b agg data [ 0 ] in
  let agg = B.insertvalue env.b agg data [ 1 ] in
  let agg = B.insertvalue env.b agg (Lvalue.ci64 0) [ 2 ] in
  let agg =
    List.fold_left
      (fun agg (i, d) -> B.insertvalue env.b agg (Lvalue.ci64 d) [ 3; i ])
      agg
      (List.mapi (fun i d -> (i, d)) shape)
  in
  List.fold_left
    (fun agg (i, s) -> B.insertvalue env.b agg (Lvalue.ci64 s) [ 4; i ])
    agg
    (List.mapi (fun i s -> (i, s)) strides)

(** Data pointer of a memref representation; extracts descriptor field 1
    in modern style (each access re-extracts, as MLIR's generated code
    does before instcombine cleans it up). *)
let data_ptr env (r : memref_repr) : Lvalue.t =
  match r.desc with
  | Some d -> B.extractvalue env.b d [ 1 ] Ltype.opaque_ptr
  | None -> r.base_ptr

(* ------------------------------------------------------------------ *)
(* Subscript lowering                                                 *)
(* ------------------------------------------------------------------ *)

(** Expand an affine expression into LLVM i64 arithmetic. *)
let rec lower_affine_expr env ~dims ~syms (e : Affine_expr.t) : Lvalue.t =
  match e with
  | Affine_expr.Const c -> Lvalue.ci64 c
  | Affine_expr.Dim i -> List.nth dims i
  | Affine_expr.Sym i -> List.nth syms i
  | Affine_expr.Add (a, b) ->
      B.ibin env.b Linstr.Add
        (lower_affine_expr env ~dims ~syms a)
        (lower_affine_expr env ~dims ~syms b)
  | Affine_expr.Mul (a, b) ->
      B.ibin env.b Linstr.Mul
        (lower_affine_expr env ~dims ~syms a)
        (lower_affine_expr env ~dims ~syms b)
  | Affine_expr.Mod (a, b) ->
      B.ibin env.b Linstr.SRem
        (lower_affine_expr env ~dims ~syms a)
        (lower_affine_expr env ~dims ~syms b)
  | Affine_expr.FloorDiv (a, b) ->
      B.ibin env.b Linstr.SDiv
        (lower_affine_expr env ~dims ~syms a)
        (lower_affine_expr env ~dims ~syms b)
  | Affine_expr.CeilDiv (a, b) ->
      let va = lower_affine_expr env ~dims ~syms a in
      let vb = lower_affine_expr env ~dims ~syms b in
      let bm1 = B.ibin env.b Linstr.Sub vb (Lvalue.ci64 1) in
      let sum = B.ibin env.b Linstr.Add va bm1 in
      B.ibin env.b Linstr.SDiv sum vb

let lower_map env (map : Affine_map.t) (operands : Lvalue.t list) :
    Lvalue.t list =
  let rec take n l =
    if n = 0 then ([], l)
    else
      match l with
      | x :: tl ->
          let a, b = take (n - 1) tl in
          (x :: a, b)
      | [] -> fail "affine map operand list too short"
  in
  let dims, syms = take map.Affine_map.num_dims operands in
  List.map (lower_affine_expr env ~dims ~syms) map.Affine_map.exprs

(** Address computation for an access.

    Modern/descriptor style: linearize ([(i0*s0) + (i1*s1) + ...]) and
    emit a flat one-index GEP on the element type — the shape
    information is {e gone} from the IR, which is exactly what the
    adaptor's descriptor-elimination pass has to undo.

    Classic style: emit a multi-dimensional GEP over the nested array
    type. *)
let access_addr env (r : memref_repr) (idxs : Lvalue.t list) : Lvalue.t =
  let elem = lower_scalar_ty r.elem in
  if env.style = Modern then begin
    let strides = strides_of_shape r.shape in
    let lin =
      List.fold_left2
        (fun acc idx stride ->
          let term =
            if stride = 1 then idx
            else B.ibin env.b Linstr.Mul idx (Lvalue.ci64 stride)
          in
          match acc with
          | None -> Some term
          | Some a -> Some (B.ibin env.b Linstr.Add a term))
        None idxs strides
    in
    let lin = match lin with Some v -> v | None -> Lvalue.ci64 0 in
    let ptr = data_ptr env r in
    B.gep env.b ~opaque:true ~src_ty:elem ptr [ lin ]
  end
  else begin
    let arr_ty = memref_array_ty (Types.Memref (r.shape, r.elem)) in
    B.gep env.b ~src_ty:arr_ty r.base_ptr (Lvalue.ci64 0 :: idxs)
  end

(* ------------------------------------------------------------------ *)
(* Op lowering                                                        *)
(* ------------------------------------------------------------------ *)

let cmpi_pred = function
  | "eq" -> Linstr.IEq
  | "ne" -> Linstr.INe
  | "slt" -> Linstr.ISlt
  | "sle" -> Linstr.ISle
  | "sgt" -> Linstr.ISgt
  | "sge" -> Linstr.ISge
  | "ult" -> Linstr.IUlt
  | "ule" -> Linstr.IUle
  | "ugt" -> Linstr.IUgt
  | "uge" -> Linstr.IUge
  | p -> fail "unknown cmpi predicate %s" p

let cmpf_pred = function
  | "oeq" -> Linstr.FOeq
  | "one" -> Linstr.FOne
  | "olt" -> Linstr.FOlt
  | "ole" -> Linstr.FOle
  | "ogt" -> Linstr.FOgt
  | "oge" -> Linstr.FOge
  | p -> fail "unknown cmpf predicate %s" p

let float_suffix = function
  | Ltype.Float -> "f32"
  | Ltype.Double -> "f64"
  | t -> fail "float_suffix: %s" (Ltype.to_string t)

let int_suffix = function
  | Ltype.I32 -> "i32"
  | Ltype.I64 -> "i64"
  | t -> fail "int_suffix: %s" (Ltype.to_string t)

(** Use-count table for the fmuladd fusion peephole. *)
let use_counts_of_func (f : Ir.func) =
  let tbl = Hashtbl.create 64 in
  Ir.walk_func
    (fun o ->
      List.iter
        (fun (v : Ir.value) ->
          Hashtbl.replace tbl v.Ir.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v.Ir.id)))
        o.Ir.operands)
    f;
  tbl

type fctx = {
  uses : (int, int) Hashtbl.t;
  (* mulf results fused into fmuladd: id -> (lhs, rhs) *)
  fused_muls : (int, Ir.value * Ir.value) Hashtbl.t;
  func : Ir.func;
}

(** Materialize a deferred [mulf] (one that was scheduled for fmuladd
    fusion but is needed as a plain value after all). *)
let force env fctx (v : Ir.value) : Lvalue.t =
  match Hashtbl.find_opt fctx.fused_muls v.Ir.id with
  | Some (a, b) ->
      Hashtbl.remove fctx.fused_muls v.Ir.id;
      let r = B.fbin env.b Linstr.FMul (lookup env a) (lookup env b) in
      bind env v r;
      r
  | None -> lookup env v

let rec lower_block env fctx (ops : Ir.op list) : unit =
  match ops with
  | [] -> ()
  | o :: rest ->
      lower_op env fctx rest o;
      lower_block env fctx rest

(** [rest] = the ops following [o] in the same block (used by the
    fmuladd fusion peephole to look ahead). *)
and lower_op env fctx (rest : Ir.op list) (o : Ir.op) : unit =
  let open Linstr in
  let b = env.b in
  let res () = List.hd o.Ir.results in
  let operand n = List.nth o.Ir.operands n in
  let lv n = force env fctx (operand n) in
  let bind1 v = bind env (res ()) v in
  match o.Ir.name with
  | "arith.constant" -> (
      let r = res () in
      match Attr.find_exn o.Ir.attrs "value" with
      | Attr.Int i -> bind1 (Lvalue.ci ~ty:(lower_scalar_ty r.Ir.ty) i)
      | Attr.Float f -> bind1 (Lvalue.cf ~ty:(lower_scalar_ty r.Ir.ty) f)
      | a -> fail "bad constant %s" (Attr.to_string a))
  | "arith.addi" -> bind1 (B.ibin b Add (lv 0) (lv 1))
  | "arith.subi" -> bind1 (B.ibin b Sub (lv 0) (lv 1))
  | "arith.muli" -> bind1 (B.ibin b Mul (lv 0) (lv 1))
  | "arith.divsi" -> bind1 (B.ibin b SDiv (lv 0) (lv 1))
  | "arith.remsi" -> bind1 (B.ibin b SRem (lv 0) (lv 1))
  | "arith.divui" -> bind1 (B.ibin b UDiv (lv 0) (lv 1))
  | "arith.remui" -> bind1 (B.ibin b URem (lv 0) (lv 1))
  | "arith.floordivsi" ->
      (* expand to trunc-div with correction: q - 1 when the remainder
         is non-zero and has a sign opposite to the divisor *)
      let x = lv 0 and y = lv 1 in
      let ty = Lvalue.type_of x in
      let q = B.ibin b SDiv x y in
      let r = B.ibin b SRem x y in
      let rnz = B.icmp b INe r (Lvalue.ci ~ty 0) in
      let rneg = B.icmp b ISlt r (Lvalue.ci ~ty 0) in
      let yneg = B.icmp b ISlt y (Lvalue.ci ~ty 0) in
      let opposite = B.ibin b Xor rneg yneg in
      let adjust = B.ibin b And rnz opposite in
      let qm1 = B.ibin b Sub q (Lvalue.ci ~ty 1) in
      bind1 (B.select b adjust qm1 q)
  | "arith.andi" -> bind1 (B.ibin b And (lv 0) (lv 1))
  | "arith.ori" -> bind1 (B.ibin b Or (lv 0) (lv 1))
  | "arith.xori" -> bind1 (B.ibin b Xor (lv 0) (lv 1))
  | "arith.shli" -> bind1 (B.ibin b Shl (lv 0) (lv 1))
  | "arith.shrsi" -> bind1 (B.ibin b AShr (lv 0) (lv 1))
  | "arith.shrui" -> bind1 (B.ibin b LShr (lv 0) (lv 1))
  | "arith.maxsi" | "arith.minsi" | "arith.maxui" | "arith.minui" ->
      let x = lv 0 and y = lv 1 in
      if env.style = Modern then begin
        let ty = Lvalue.type_of x in
        let name =
          (match o.Ir.name with
          | "arith.maxsi" -> "llvm.smax."
          | "arith.minsi" -> "llvm.smin."
          | "arith.maxui" -> "llvm.umax."
          | _ -> "llvm.umin.")
          ^ int_suffix ty
        in
        need_decl env { dname = name; dret = ty; dargs = [ ty; ty ] };
        bind1 (B.call b ~ret:ty name [ x; y ])
      end
      else begin
        let pred =
          match o.Ir.name with
          | "arith.maxsi" -> ISgt
          | "arith.minsi" -> ISlt
          | "arith.maxui" -> IUgt
          | _ -> IUlt
        in
        let c = B.icmp b pred x y in
        bind1 (B.select b c x y)
      end
  | "arith.addf" -> (
      (* fmuladd fusion: addf(mulf(a,b), c) -> llvm.fmuladd(a,b,c) *)
      let fused_operand k =
        Hashtbl.find_opt fctx.fused_muls (operand k).Ir.id
        |> Option.map (fun ab -> (k, ab))
      in
      let pick =
        match fused_operand 0 with Some x -> Some x | None -> fused_operand 1
      in
      match pick with
      | Some (k, (ma, mb)) ->
          Hashtbl.remove fctx.fused_muls (operand k).Ir.id;
          let addend = force env fctx (operand (1 - k)) in
          let va = lookup env ma and vb = lookup env mb in
          let ty = Lvalue.type_of va in
          let name = "llvm.fmuladd." ^ float_suffix ty in
          need_decl env { dname = name; dret = ty; dargs = [ ty; ty; ty ] };
          bind1 (B.call b ~ret:ty name [ va; vb; addend ])
      | None -> bind1 (B.fbin b FAdd (lv 0) (lv 1)))
  | "arith.subf" -> bind1 (B.fbin b FSub (lv 0) (lv 1))
  | "arith.mulf" ->
      let r = res () in
      (* defer if the unique use is a later addf in this block *)
      let fused =
        env.style = Modern
        && Hashtbl.find_opt fctx.uses r.Ir.id = Some 1
        && List.exists
             (fun (o2 : Ir.op) ->
               o2.Ir.name = "arith.addf"
               && List.exists
                    (fun (v : Ir.value) -> v.Ir.id = r.Ir.id)
                    o2.Ir.operands)
             rest
      in
      if fused then
        Hashtbl.replace fctx.fused_muls r.Ir.id (operand 0, operand 1)
      else bind1 (B.fbin b FMul (lv 0) (lv 1))
  | "arith.divf" -> bind1 (B.fbin b FDiv (lv 0) (lv 1))
  | "arith.negf" ->
      let x = lv 0 in
      bind1 (B.fbin b FSub (Lvalue.cf ~ty:(Lvalue.type_of x) 0.0) x)
  | "arith.maximumf" | "arith.minimumf" ->
      let x = lv 0 and y = lv 1 in
      let c =
        B.fcmp b (if o.Ir.name = "arith.maximumf" then FOgt else FOlt) x y
      in
      bind1 (B.select b c x y)
  | "arith.cmpi" ->
      bind1
        (B.icmp b
           (cmpi_pred (Attr.as_str (Attr.find_exn o.Ir.attrs "predicate")))
           (lv 0) (lv 1))
  | "arith.cmpf" ->
      bind1
        (B.fcmp b
           (cmpf_pred (Attr.as_str (Attr.find_exn o.Ir.attrs "predicate")))
           (lv 0) (lv 1))
  | "arith.select" -> bind1 (B.select b (lv 0) (lv 1) (lv 2))
  | "arith.index_cast" ->
      let r = res () in
      let target = lower_scalar_ty r.Ir.ty in
      let v = lv 0 in
      let src = Lvalue.type_of v in
      if Ltype.equal src target then bind1 v
      else if Ltype.int_width src < Ltype.int_width target then
        bind1 (B.cast b Sext v target)
      else bind1 (B.cast b Trunc v target)
  | "arith.sitofp" -> bind1 (B.cast b Sitofp (lv 0) (lower_scalar_ty (res ()).Ir.ty))
  | "arith.fptosi" -> bind1 (B.cast b Fptosi (lv 0) (lower_scalar_ty (res ()).Ir.ty))
  | "arith.extf" -> bind1 (B.cast b Fpext (lv 0) (lower_scalar_ty (res ()).Ir.ty))
  | "arith.truncf" -> bind1 (B.cast b Fptrunc (lv 0) (lower_scalar_ty (res ()).Ir.ty))
  | "memref.alloc" | "memref.alloca" ->
      let r = res () in
      let arr_ty = memref_array_ty r.Ir.ty in
      let shape, elem =
        match r.Ir.ty with
        | Types.Memref (s, e) -> (s, e)
        | _ -> fail "memref.alloc: bad type"
      in
      let data =
        match env.style with
        | Modern -> B.alloca_opaque b ~name:"buf" arr_ty
        | Classic ->
            (* keep the nested-array pointer; no bitcast to elem* *)
            B.alloca b ~name:"buf" arr_ty
      in
      if env.style = Modern then begin
        let pty = Lvalue.type_of data in
        need_decl env
          {
            dname = "llvm.lifetime.start.p0";
            dret = Ltype.Void;
            dargs = [ Ltype.I64; pty ];
          };
        ignore
          (B.call b ~ret:Ltype.Void "llvm.lifetime.start.p0"
             [ Lvalue.ci64 (Ltype.sizeof arr_ty); data ])
      end;
      let desc =
        if env.style = Modern then Some (build_descriptor env r.Ir.ty data)
        else None
      in
      Hashtbl.replace env.memrefs r.Ir.id { desc; base_ptr = data; shape; elem }
  | "memref.dealloc" ->
      if env.style = Modern then begin
        let r = lookup_memref env (operand 0) in
        let pty = Lvalue.type_of r.base_ptr in
        need_decl env
          {
            dname = "llvm.lifetime.end.p0";
            dret = Ltype.Void;
            dargs = [ Ltype.I64; pty ];
          };
        let arr_ty = memref_array_ty (Types.Memref (r.shape, r.elem)) in
        ignore
          (B.call b ~ret:Ltype.Void "llvm.lifetime.end.p0"
             [ Lvalue.ci64 (Ltype.sizeof arr_ty); r.base_ptr ])
      end
  | "affine.load" | "memref.load" ->
      let r = lookup_memref env (operand 0) in
      let raw_idxs =
        List.map (fun v -> lookup env v) (List.tl o.Ir.operands)
      in
      let idxs =
        match o.Ir.name with
        | "affine.load" ->
            let map = Attr.as_map (Attr.find_exn o.Ir.attrs "map") in
            lower_map env map raw_idxs
        | _ -> raw_idxs
      in
      let addr = access_addr env r idxs in
      bind1 (B.load b (lower_scalar_ty r.elem) addr)
  | "affine.store" | "memref.store" -> (
      match o.Ir.operands with
      | v :: m :: rest ->
          let r = lookup_memref env m in
          let raw_idxs = List.map (fun x -> lookup env x) rest in
          let idxs =
            match o.Ir.name with
            | "affine.store" ->
                let map = Attr.as_map (Attr.find_exn o.Ir.attrs "map") in
                lower_map env map raw_idxs
            | _ -> raw_idxs
          in
          let addr = access_addr env r idxs in
          B.store b (lookup env v) addr
      | _ -> fail "store: malformed operands")
  | "affine.apply" ->
      let map = Attr.as_map (Attr.find_exn o.Ir.attrs "map") in
      let vs = lower_map env map (List.map (lookup env) o.Ir.operands) in
      bind1 (List.hd vs)
  | "affine.for" -> lower_affine_for env fctx o
  | "scf.for" -> lower_scf_for env fctx o
  | "scf.if" -> lower_scf_if env fctx o
  | "func.call" ->
      let callee = Attr.as_str (Attr.find_exn o.Ir.attrs "callee") in
      let args =
        List.map
          (fun (v : Ir.value) ->
            if Types.is_memref v.Ir.ty then (lookup_memref env v).base_ptr
            else lookup env v)
          o.Ir.operands
      in
      (match o.Ir.results with
      | [] -> ignore (B.call b ~ret:Ltype.Void callee args)
      | [ r ] ->
          bind env r (B.call b ~ret:(lower_scalar_ty r.Ir.ty) callee args)
      | _ -> fail "func.call: at most one result supported")
  | "func.return" -> (
      match o.Ir.operands with
      | [] -> B.ret_void b
      | [ v ] -> B.ret b (Some (lookup env v))
      | _ -> fail "func.return: at most one value supported")
  | "affine.yield" | "scf.yield" ->
      (* handled by the enclosing loop/if lowering *)
      ()
  | name -> fail "lowering: unhandled op %s" name

(** Shared loop skeleton.  [lb]/[ub]/[step] are i64 values; [iters] are
    the loop-carried inits.  [blk] is the region block.  The loop takes
    the next loop id before its body, so ids follow the ops' pre-order. *)
and lower_counted_loop env fctx ~(lb : Lvalue.t) ~(ub : Lvalue.t)
    ~(step : Lvalue.t) ~(iters : Lvalue.t list) ~(blk : Ir.block)
    ~(results : Ir.value list) : unit =
  let b = env.b in
  let id = !(env.loop_ids) in
  env.loop_ids := id + 1;
  env.loop_counter <- env.loop_counter + 1;
  let n = env.loop_counter in
  let header = B.fresh_label b (Printf.sprintf "loop%d.header" n) in
  let body_l = B.fresh_label b (Printf.sprintf "loop%d.body" n) in
  let latch = B.fresh_label b (Printf.sprintf "loop%d.latch" n) in
  let exit = B.fresh_label b (Printf.sprintf "loop%d.exit" n) in
  let iv_mh, iter_params =
    match blk.Ir.params with
    | iv :: rest -> (iv, rest)
    | [] -> fail "loop region lacks induction variable"
  in
  (* optional assume: trip count positive — a modern-IR-ism *)
  if env.style = Modern then begin
    need_decl env
      { dname = "llvm.assume"; dret = Ltype.Void; dargs = [ Ltype.I1 ] };
    let pos = B.icmp b Linstr.ISle lb ub in
    ignore (B.call b ~ret:Ltype.Void "llvm.assume" [ pos ])
  end;
  let pre_label =
    (* label of the block we are currently in; needed for phis *)
    match b.B.cur_label with Some l -> l | None -> fail "not in a block"
  in
  B.br b header;
  (* header: iv phi + iter phis + bound check *)
  B.start_block b header;
  let iv_name = B.fresh_name b (Printf.sprintf "i%d" n) in
  let iv = Lvalue.reg iv_name Ltype.I64 in
  let next_name = B.fresh_name b (Printf.sprintf "i%d.next" n) in
  B.emit b
    (Linstr.make ~result:iv_name ~ty:Ltype.I64
       (Linstr.Phi
          [
            (lb, Sym.intern pre_label);
            (Lvalue.reg next_name Ltype.I64, Sym.intern latch);
          ]));
  bind env iv_mh iv;
  let iter_phis =
    List.map2
      (fun (p : Ir.value) init ->
        let ty = lower_scalar_ty p.Ir.ty in
        let pn = B.fresh_name b "carry" in
        (* latch value filled in after body lowering via a placeholder *)
        (pn, ty, init, p))
      iter_params iters
  in
  (* Emit iter phis with placeholder latch values; we patch them after. *)
  List.iter
    (fun (pn, ty, init, p) ->
      B.emit b
        (Linstr.make ~result:pn ~ty
           (Linstr.Phi [ (init, Sym.intern pre_label) ]));
      bind env p (Lvalue.reg pn ty))
    iter_phis;
  let cond = B.icmp b Linstr.ISlt iv ub in
  B.condbr b cond body_l exit;
  (* body *)
  B.start_block b body_l;
  lower_block env fctx blk.Ir.ops;
  (* the block terminator in mhir is the yield: collect yielded values *)
  let yielded =
    match List.rev blk.Ir.ops with
    | last :: _ when last.Ir.name = "affine.yield" || last.Ir.name = "scf.yield"
      ->
        List.map (lookup env) last.Ir.operands
    | _ -> []
  in
  B.br b latch;
  let body_end_label =
    (* the lowered body may contain nested loops; the branch to the latch
       came from whatever block was open, which [emit] just closed.  Find
       it: it is the block whose terminator is [br latch]. *)
    latch
  in
  ignore body_end_label;
  (* latch: iv increment + back edge with the loop id *)
  B.start_block b latch;
  B.emit b
    (Linstr.make ~result:next_name ~ty:Ltype.I64
       (Linstr.IBin (Linstr.Add, iv, step)));
  B.br b header;
  B.annotate_last b [ (Apply_directives.loop_id, Linstr.MInt id) ];
  (* exit *)
  B.start_block b exit;
  (* patch iter phis with latch incoming (the yielded values) *)
  List.iteri
    (fun k (pn, ty, _init, _p) ->
      let yv = List.nth yielded k in
      let header_s = Sym.intern header and latch_s = Sym.intern latch in
      let pn_s = Sym.intern pn in
      (* find the phi in the header block and append the latch edge *)
      let patch (blkrec : Llvmir.Lmodule.block) =
        if blkrec.Llvmir.Lmodule.label <> header_s then blkrec
        else
          {
            blkrec with
            Llvmir.Lmodule.insts =
              List.map
                (fun (ins : Linstr.t) ->
                  if ins.Linstr.result = pn_s then
                    match ins.Linstr.op with
                    | Linstr.Phi inc ->
                        { ins with Linstr.op = Linstr.Phi (inc @ [ (yv, latch_s) ]) }
                    | _ -> ins
                  else ins)
                blkrec.Llvmir.Lmodule.insts;
          }
      in
      b.B.blocks <- List.map patch b.B.blocks;
      ignore ty)
    iter_phis;
  (* loop results bind to the final iter values (header phis) *)
  List.iteri
    (fun k (r : Ir.value) ->
      let pn, ty, _, _ = List.nth iter_phis k in
      bind env r (Lvalue.reg pn ty))
    results

and lower_affine_for env fctx (o : Ir.op) : unit =
  let lb_map = Attr.as_map (Attr.find_exn o.Ir.attrs "lower_map") in
  let ub_map = Attr.as_map (Attr.find_exn o.Ir.attrs "upper_map") in
  let step = Attr.as_int (Attr.find_exn o.Ir.attrs "step") in
  let lb =
    match Affine_map.as_constant lb_map with
    | Some c -> Lvalue.ci64 c
    | None -> fail "affine.for: symbolic bounds unsupported"
  in
  let ub =
    match Affine_map.as_constant ub_map with
    | Some c -> Lvalue.ci64 c
    | None -> fail "affine.for: symbolic bounds unsupported"
  in
  let iters = List.map (lookup env) o.Ir.operands in
  let blk = Ir.entry_block (List.hd o.Ir.regions) in
  lower_counted_loop env fctx ~lb ~ub ~step:(Lvalue.ci64 step) ~iters ~blk
    ~results:o.Ir.results

and lower_scf_for env fctx (o : Ir.op) : unit =
  match o.Ir.operands with
  | lb :: ub :: step :: iter_inits ->
      let blk = Ir.entry_block (List.hd o.Ir.regions) in
      lower_counted_loop env fctx ~lb:(lookup env lb) ~ub:(lookup env ub)
        ~step:(lookup env step)
        ~iters:(List.map (lookup env) iter_inits)
        ~blk ~results:o.Ir.results
  | _ -> fail "scf.for: malformed operands"

and lower_scf_if env fctx (o : Ir.op) : unit =
  let b = env.b in
  env.loop_counter <- env.loop_counter + 1;
  let n = env.loop_counter in
  let then_l = B.fresh_label b (Printf.sprintf "if%d.then" n) in
  let else_l = B.fresh_label b (Printf.sprintf "if%d.else" n) in
  let merge = B.fresh_label b (Printf.sprintf "if%d.end" n) in
  let cond = lookup env (List.hd o.Ir.operands) in
  B.condbr b cond then_l else_l;
  let lower_branch label (r : Ir.region) =
    B.start_block b label;
    let blk = Ir.entry_block r in
    lower_block env fctx blk.Ir.ops;
    let yielded =
      match List.rev blk.Ir.ops with
      | last :: _ when last.Ir.name = "scf.yield" ->
          List.map (lookup env) last.Ir.operands
      | _ -> []
    in
    (* remember which block we ended in for the phi *)
    let end_label =
      match b.B.cur_label with Some l -> l | None -> fail "branch fell out"
    in
    B.br b merge;
    (yielded, end_label)
  in
  let then_vals, then_end = lower_branch then_l (List.nth o.Ir.regions 0) in
  let else_vals, else_end = lower_branch else_l (List.nth o.Ir.regions 1) in
  B.start_block b merge;
  List.iteri
    (fun k (r : Ir.value) ->
      let ty = lower_scalar_ty r.Ir.ty in
      let v =
        B.phi b ~name:"ifres" ty
          [ (List.nth then_vals k, then_end); (List.nth else_vals k, else_end) ]
      in
      bind env r v)
    o.Ir.results;
  (* a merge block needs a terminator eventually; the subsequent ops of
     the enclosing block will be emitted here. *)
  ()

(* ------------------------------------------------------------------ *)
(* Function / module                                                  *)
(* ------------------------------------------------------------------ *)

let lower_func (style : style) ~loop_ids (mhf : Ir.func) :
    Llvmir.Lmodule.func * Llvmir.Lmodule.decl list =
  let b = B.create () in
  let env =
    {
      style;
      b;
      values = Hashtbl.create 128;
      memrefs = Hashtbl.create 16;
      decls = [];
      loop_counter = 0;
      loop_ids;
    }
  in
  let fctx =
    { uses = use_counts_of_func mhf; fused_muls = Hashtbl.create 8; func = mhf }
  in
  (* parameters: memrefs use the bare-pointer convention *)
  let params =
    List.map
      (fun (v : Ir.value) ->
        let hint = if v.Ir.hint = "" then "arg" ^ string_of_int v.Ir.id else v.Ir.hint in
        let pname = B.fresh_name b hint in
        match v.Ir.ty with
        | Types.Memref _ ->
            let pty =
              match style with
              | Modern -> Ltype.opaque_ptr
              | Classic -> Ltype.ptr (memref_array_ty v.Ir.ty)
            in
            { Llvmir.Lmodule.pname; pty; pattrs = [] }
        | t -> { Llvmir.Lmodule.pname; pty = lower_scalar_ty t; pattrs = [] })
      mhf.Ir.args
  in
  B.start_block b "entry";
  (* bind parameters; repack memrefs into descriptors *)
  List.iter2
    (fun (v : Ir.value) (p : Llvmir.Lmodule.param) ->
      match v.Ir.ty with
      | Types.Memref (shape, elem) ->
          let bare = Lvalue.reg p.Llvmir.Lmodule.pname p.Llvmir.Lmodule.pty in
          let desc =
            if style = Modern then Some (build_descriptor env v.Ir.ty bare)
            else None
          in
          Hashtbl.replace env.memrefs v.Ir.id
            { desc; base_ptr = bare; shape; elem }
      | _ ->
          bind env v (Lvalue.reg p.Llvmir.Lmodule.pname p.Llvmir.Lmodule.pty))
    mhf.Ir.args params;
  lower_block env fctx (Ir.entry_block mhf.Ir.body).Ir.ops;
  let blocks = B.finish b in
  let ret_ty =
    match mhf.Ir.ret_tys with
    | [] -> Ltype.Void
    | [ t ] -> lower_scalar_ty t
    | _ -> fail "multiple return values unsupported at LLVM level"
  in
  ( { Llvmir.Lmodule.fname = mhf.Ir.fname; ret_ty; params; blocks; fattrs = [] },
    env.decls )

(** Lower a whole module without its directives: loop ids on the
    latches, no function attributes.  The result verifies under
    {!Llvmir.Lverifier}. *)
let directive_free ?(style = modern) (m : Ir.modul) : Llvmir.Lmodule.t =
  let loop_ids = ref 0 in
  let funcs, decls =
    List.fold_left
      (fun (fs, ds) f ->
        let lf, d = lower_func style ~loop_ids f in
        (lf :: fs, d @ ds))
      ([], []) m.Ir.funcs
  in
  let dedup =
    List.fold_left
      (fun acc (d : Llvmir.Lmodule.decl) ->
        if List.exists (fun (x : Llvmir.Lmodule.decl) -> x.dname = d.dname) acc
        then acc
        else d :: acc)
      [] decls
  in
  {
    Llvmir.Lmodule.mname = "lowered";
    funcs = List.rev funcs;
    globals = [];
    decls = dedup;
  }

(** Lower a whole module with its directives: {!directive_free}, then
    {!Apply_directives.run}. *)
let lower_module ?style (m : Ir.modul) : Llvmir.Lmodule.t =
  Apply_directives.run m (directive_free ?style m)
