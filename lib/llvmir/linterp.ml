(** LLVM IR interpreter with a byte-addressed memory model.

    This is the functional oracle for the adaptor: the IR before and
    after every legalization pass must compute the same outputs, and
    both HLS flows must match the mhir reference interpreter
    ("C/RTL co-simulation" analogue).

    Model notes:
    - addresses are plain ints from a bump allocator; each scalar slot
      lives at its natural offset (so GEP arithmetic agrees with
      {!Ltype.sizeof});
    - [float]/[double] are both OCaml floats (the mhir interpreter makes
      the same substitution, keeping the oracles comparable);
    - integers normalize to their width after every operation; unsigned
      arithmetic and the deterministic out-of-range shift behaviour are
      defined once in {!Support.Int_sem};
    - intrinsics: [llvm.smax/smin/umax/umin/abs/fmuladd/fabs/sqrt] are
      evaluated; [llvm.lifetime.*], [llvm.assume] and the Vitis-style
      [_ssdm_op_Spec*] markers are no-ops. *)

open Linstr
module Sym = Support.Interner

let fail = Support.Err.fail ~pass:"llvmir.interp"

type rv =
  | RInt of int
  | RFloat of float
  | RPtr of int
  | RAgg of rv array
  | RUndef

type state = {
  mem : (int, rv) Hashtbl.t;
  mutable brk : int;
  modul : Lmodule.t;
  globals : (Sym.t, int) Hashtbl.t;
  mutable fuel : int;  (** instruction budget; guards infinite loops *)
}

let norm_int ty v =
  match ty with
  | Ltype.I1 -> v land 1
  | Ltype.I8 ->
      let m = v land 0xFF in
      if m land 0x80 <> 0 then m - 0x100 else m
  | Ltype.I16 ->
      let m = v land 0xFFFF in
      if m land 0x8000 <> 0 then m - 0x10000 else m
  | Ltype.I32 ->
      let m = v land 0xFFFFFFFF in
      if m land 0x80000000 <> 0 then m - (1 lsl 32) else m
  | _ -> v

(** Zero value of a type (used for alloca/global initialization). *)
let rec zero_of = function
  | t when Ltype.is_int t -> RInt 0
  | t when Ltype.is_float t -> RFloat 0.0
  | Ltype.Ptr _ -> RPtr 0
  | Ltype.Array (n, t) -> RAgg (Array.init n (fun _ -> zero_of t))
  | Ltype.Struct fields -> RAgg (Array.of_list (List.map zero_of fields))
  | t -> fail "zero_of: unsupported type %s" (Ltype.to_string t)

(** Write an aggregate/scalar value into memory at [addr], slot by
    scalar slot at natural offsets. *)
let rec mem_write st addr ty (v : rv) =
  match (ty, v) with
  | Ltype.Array (n, elt), RAgg vs ->
      let sz = Ltype.sizeof elt in
      for i = 0 to n - 1 do
        mem_write st (addr + (i * sz)) elt vs.(i)
      done
  | Ltype.Struct fields, RAgg vs ->
      List.iteri
        (fun i f -> mem_write st (addr + Ltype.struct_offset fields i) f vs.(i))
        fields
  | _, _ -> Hashtbl.replace st.mem addr v

let rec mem_read st addr ty : rv =
  match ty with
  | Ltype.Array (n, elt) ->
      let sz = Ltype.sizeof elt in
      RAgg (Array.init n (fun i -> mem_read st (addr + (i * sz)) elt))
  | Ltype.Struct fields ->
      RAgg
        (Array.of_list
           (List.mapi
              (fun i f -> mem_read st (addr + Ltype.struct_offset fields i) f)
              fields))
  | _ -> (
      match Hashtbl.find_opt st.mem addr with
      | Some v -> v
      | None -> fail "load from uninitialized address %d" addr)

let alloc st ty =
  let align = max 8 (Ltype.alignment ty) in
  let addr = (st.brk + align - 1) / align * align in
  st.brk <- addr + max 1 (Ltype.sizeof ty);
  mem_write st addr ty (zero_of ty);
  addr

let create (m : Lmodule.t) : state =
  let st =
    {
      mem = Hashtbl.create 4096;
      brk = 0x1000;
      modul = m;
      globals = Hashtbl.create 8;
      fuel = 500_000_000;
    }
  in
  List.iter
    (fun (g : Lmodule.global) ->
      let addr = alloc st g.gty in
      Hashtbl.replace st.globals (Sym.intern g.gname) addr)
    m.globals;
  st

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

type frame = { env : (Sym.t, rv) Hashtbl.t }

let const_rv = function
  | Lvalue.CInt (v, ty) -> RInt (norm_int ty v)
  | Lvalue.CFloat (v, _) -> RFloat v
  | Lvalue.CNull _ -> RPtr 0
  | Lvalue.CUndef _ -> RUndef
  | Lvalue.CZero ty -> zero_of ty

let eval st frame (v : Lvalue.t) : rv =
  match v with
  | Lvalue.Reg (n, _) -> (
      match Hashtbl.find_opt frame.env n with
      | Some rv -> rv
      | None -> fail "register %%%s unbound" (Sym.name n))
  | Lvalue.Global (n, _) -> (
      match Hashtbl.find_opt st.globals n with
      | Some addr -> RPtr addr
      | None -> fail "global @%s unbound" (Sym.name n))
  | Lvalue.Const c -> const_rv c

let as_i = function
  | RInt v -> v
  | RUndef -> 0
  | _ -> fail "expected integer runtime value"

let as_f = function
  | RFloat v -> v
  | RUndef -> 0.0
  | _ -> fail "expected float runtime value"

let as_p = function
  | RPtr v -> v
  | RUndef -> 0
  | _ -> fail "expected pointer runtime value"

(* Division, remainder, shifts and unsigned reinterpretation all follow
   {!Support.Int_sem} — the semantics shared with the mhir interpreter
   and both constant folders.  Shift amounts >= width (or negative)
   yield 0 for [shl]/[lshr] and the sign fill for [ashr]. *)
let ibin_eval op ty a b =
  let w = Ltype.int_width ty in
  let module S = Support.Int_sem in
  let v =
    match op with
    | Add -> a + b
    | Sub -> a - b
    | Mul -> a * b
    | SDiv -> if b = 0 then fail "sdiv by zero" else a / b
    | UDiv -> if b = 0 then fail "udiv by zero" else S.udiv ~width:w a b
    | SRem -> if b = 0 then fail "srem by zero" else a mod b
    | URem -> if b = 0 then fail "urem by zero" else S.urem ~width:w a b
    | Shl -> S.shl ~width:w a b
    | LShr -> S.lshr ~width:w a b
    | AShr -> S.ashr ~width:w a b
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
  in
  norm_int ty v

let fbin_eval op a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FMul -> a *. b
  | FDiv -> a /. b
  | FRem -> Float.rem a b

let icmp_eval p a b =
  let module S = Support.Int_sem in
  match p with
  | IEq -> a = b
  | INe -> a <> b
  | ISlt -> a < b
  | ISle -> a <= b
  | ISgt -> a > b
  | ISge -> a >= b
  | IUlt -> S.ult a b
  | IUle -> S.ule a b
  | IUgt -> S.ugt a b
  | IUge -> S.uge a b

let fcmp_eval p a b =
  match p with
  | FOeq -> a = b
  | FOne -> a <> b && not (Float.is_nan a || Float.is_nan b)
  | FOlt -> a < b
  | FOle -> a <= b
  | FOgt -> a > b
  | FOge -> a >= b
  | FOrd -> not (Float.is_nan a || Float.is_nan b)
  | FUno -> Float.is_nan a || Float.is_nan b

let intrinsic_eval st name (args : rv list) : rv option =
  let starts_with prefix = String.starts_with ~prefix name in
  ignore st;
  match args with
  | [ a; b ] when starts_with "llvm.smax." -> Some (RInt (max (as_i a) (as_i b)))
  | [ a; b ] when starts_with "llvm.smin." -> Some (RInt (min (as_i a) (as_i b)))
  | [ a; b ] when starts_with "llvm.umax." ->
      Some (RInt (Support.Int_sem.umax (as_i a) (as_i b)))
  | [ a; b ] when starts_with "llvm.umin." ->
      Some (RInt (Support.Int_sem.umin (as_i a) (as_i b)))
  | [ a; _poison ] when starts_with "llvm.abs." -> Some (RInt (abs (as_i a)))
  | [ a; b; c ] when starts_with "llvm.fmuladd." || starts_with "llvm.fma." ->
      Some (RFloat ((as_f a *. as_f b) +. as_f c))
  | [ a ] when starts_with "llvm.fabs." -> Some (RFloat (Float.abs (as_f a)))
  | [ a ] when starts_with "llvm.sqrt." -> Some (RFloat (Float.sqrt (as_f a)))
  | _ when starts_with "llvm.lifetime." -> Some RUndef
  | _ when starts_with "llvm.assume" -> Some RUndef
  | _ when starts_with "_ssdm_op_" -> Some RUndef
  | _ -> None

exception Returned of rv option

let rec run_func st (f : Lmodule.func) (args : rv list) : rv option =
  if List.length args <> List.length f.params then
    fail "@%s: arity mismatch" f.fname;
  let frame = { env = Hashtbl.create 64 } in
  List.iter2
    (fun (p : Lmodule.param) a ->
      Hashtbl.replace frame.env (Sym.intern p.pname) a)
    f.params args;
  let cfg_blocks = Hashtbl.create 16 in
  List.iter
    (fun (b : Lmodule.block) -> Hashtbl.replace cfg_blocks b.label b)
    f.blocks;
  let rec exec_block prev_label (b : Lmodule.block) : rv option =
    (* phis evaluate simultaneously from the incoming edge *)
    let phis, rest =
      let rec split acc = function
        | ({ op = Phi _; _ } as i) :: tl -> split (i :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      split [] b.insts
    in
    let phi_vals =
      List.map
        (fun (i : Linstr.t) ->
          match i.op with
          | Phi incoming -> (
              match prev_label with
              | None -> fail "phi executed with no predecessor"
              | Some pl -> (
                  match List.assoc_opt pl (List.map (fun (v, l) -> (l, v)) incoming) with
                  | Some v -> (i.result, eval st frame v)
                  | None -> fail "phi has no incoming for %%%s" (Sym.name pl)))
          | _ -> assert false)
        phis
    in
    List.iter (fun (r, v) -> Hashtbl.replace frame.env r v) phi_vals;
    exec_insts b.label rest
  and exec_insts label = function
    | [] -> fail "block %%%s fell through" (Sym.name label)
    | (i : Linstr.t) :: rest -> (
        st.fuel <- st.fuel - 1;
        if st.fuel <= 0 then fail "instruction budget exhausted (infinite loop?)";
        let bind rv =
          if not (Sym.is_empty i.result) then
            Hashtbl.replace frame.env i.result rv
        in
        match i.op with
        | IBin (op, a, b) ->
            bind
              (RInt
                 (ibin_eval op
                    (Lvalue.type_of a)
                    (as_i (eval st frame a))
                    (as_i (eval st frame b))));
            exec_insts label rest
        | FBin (op, a, b) ->
            bind (RFloat (fbin_eval op (as_f (eval st frame a)) (as_f (eval st frame b))));
            exec_insts label rest
        | Icmp (p, a, b) ->
            let x = eval st frame a and y = eval st frame b in
            let xi = match x with RPtr v -> v | v -> as_i v in
            let yi = match y with RPtr v -> v | v -> as_i v in
            bind (RInt (if icmp_eval p xi yi then 1 else 0));
            exec_insts label rest
        | Fcmp (p, a, b) ->
            bind
              (RInt
                 (if fcmp_eval p (as_f (eval st frame a)) (as_f (eval st frame b))
                  then 1
                  else 0));
            exec_insts label rest
        | Alloca (ty, count) ->
            let addr =
              if count = 1 then alloc st ty
              else begin
                let base = alloc st ty in
                for _ = 2 to count do ignore (alloc st ty) done;
                base
              end
            in
            bind (RPtr addr);
            exec_insts label rest
        | Load (ty, p) ->
            bind (mem_read st (as_p (eval st frame p)) ty);
            exec_insts label rest
        | Store (v, p) ->
            let ty = Lvalue.type_of v in
            let ty =
              match ty with
              | Ltype.Ptr _ -> ty
              | _ -> ty
            in
            mem_write st (as_p (eval st frame p)) ty (eval st frame v);
            exec_insts label rest
        | Gep { src_ty; base; idxs; _ } ->
            let addr = as_p (eval st frame base) in
            let rec walk addr ty = function
              | [] -> addr
              | idx :: tl -> (
                  let iv = as_i (eval st frame idx) in
                  match ty with
                  | Ltype.Array (_, elt) ->
                      walk (addr + (iv * Ltype.sizeof elt)) elt tl
                  | Ltype.Struct fields ->
                      walk
                        (addr + Ltype.struct_offset fields iv)
                        (List.nth fields iv) tl
                  | t -> fail "gep walks into non-aggregate %s" (Ltype.to_string t))
            in
            let addr =
              match idxs with
              | [] -> addr
              | first :: tl ->
                  let fv = as_i (eval st frame first) in
                  walk (addr + (fv * Ltype.sizeof src_ty)) src_ty tl
            in
            bind (RPtr addr);
            exec_insts label rest
        | Cast (c, v, ty) ->
            let rv = eval st frame v in
            let out =
              match c with
              | Trunc | Zext | Sext -> RInt (norm_int ty (as_i rv))
              | Fptrunc | Fpext -> RFloat (as_f rv)
              | Fptosi -> RInt (norm_int ty (int_of_float (as_f rv)))
              | Sitofp -> RFloat (float_of_int (as_i rv))
              | Ptrtoint -> RInt (as_p rv)
              | Inttoptr -> RPtr (as_i rv)
              | Bitcast -> rv
            in
            bind out;
            exec_insts label rest
        | Select (c, a, b) ->
            bind
              (if as_i (eval st frame c) <> 0 then eval st frame a
               else eval st frame b);
            exec_insts label rest
        | Phi _ -> fail "phi after non-phi instruction"
        | Call { callee; args; _ } -> (
            let argv = List.map (eval st frame) args in
            match intrinsic_eval st callee argv with
            | Some rv ->
                bind rv;
                exec_insts label rest
            | None -> (
                match Lmodule.find_func st.modul callee with
                | Some g ->
                    (match run_func st g argv with
                    | Some rv -> bind rv
                    | None -> ());
                    exec_insts label rest
                | None -> fail "call to unknown function @%s" callee))
        | ExtractValue (agg, path) ->
            let rec walk rv = function
              | [] -> rv
              | i :: tl -> (
                  match rv with
                  | RAgg a -> walk a.(i) tl
                  | RUndef -> RUndef
                  | _ -> fail "extractvalue from non-aggregate")
            in
            bind (walk (eval st frame agg) path);
            exec_insts label rest
        | InsertValue (agg, v, path) ->
            let velt = eval st frame v in
            let rec walk rv path =
              match (rv, path) with
              | _, [] -> velt
              | RAgg a, i :: tl ->
                  let a' = Array.copy a in
                  a'.(i) <- walk a.(i) tl;
                  RAgg a'
              | RUndef, i :: tl ->
                  (* materialize an aggregate big enough for the path *)
                  let a' = Array.make (i + 1) RUndef in
                  a'.(i) <- walk RUndef tl;
                  RAgg a'
              | _ -> fail "insertvalue into non-aggregate"
            in
            (* undef aggregates need the real width: rebuild from type *)
            let base =
              match eval st frame agg with
              | RUndef -> (
                  match Lvalue.type_of agg with
                  | (Ltype.Struct _ | Ltype.Array _) as t -> zero_of t
                  | _ -> RUndef)
              | rv -> rv
            in
            bind (walk base path);
            exec_insts label rest
        | Freeze v ->
            bind (eval st frame v);
            exec_insts label rest
        | Ret (Some v) -> raise (Returned (Some (eval st frame v)))
        | Ret None -> raise (Returned None)
        | Br l -> exec_block (Some label) (Hashtbl.find cfg_blocks l)
        | CondBr (c, t, e) ->
            let target = if as_i (eval st frame c) <> 0 then t else e in
            exec_block (Some label) (Hashtbl.find cfg_blocks target)
        | Switch (v, d, cases) ->
            let x = as_i (eval st frame v) in
            let target =
              match List.assoc_opt x cases with Some l -> l | None -> d
            in
            exec_block (Some label) (Hashtbl.find cfg_blocks target)
        | Unreachable -> fail "executed unreachable")
  in
  match f.blocks with
  | entry :: _ -> ( try exec_block None entry with Returned rv -> rv)
  | [] -> fail "@%s has no blocks" f.fname

let run st fname args = run_func st (Lmodule.find_func_exn st.modul fname) args

(* ------------------------------------------------------------------ *)
(* Host-side buffer helpers                                            *)
(* ------------------------------------------------------------------ *)

(** Allocate a flat float array of [n] elements; returns its address. *)
let alloc_floats st n = alloc st (Ltype.Array (n, Ltype.Float))

let write_floats st addr (vals : float array) =
  Array.iteri
    (fun i v -> Hashtbl.replace st.mem (addr + (i * 4)) (RFloat v))
    vals

let read_floats st addr n =
  Array.init n (fun i ->
      match Hashtbl.find_opt st.mem (addr + (i * 4)) with
      | Some (RFloat v) -> v
      | Some RUndef | None -> 0.0
      | Some _ -> fail "read_floats: non-float slot")

let alloc_ints st n = alloc st (Ltype.Array (n, Ltype.I32))

let write_ints st addr (vals : int array) =
  Array.iteri
    (fun i v -> Hashtbl.replace st.mem (addr + (i * 4)) (RInt v))
    vals

let read_ints st addr n =
  Array.init n (fun i ->
      match Hashtbl.find_opt st.mem (addr + (i * 4)) with
      | Some (RInt v) -> v
      | Some RUndef | None -> 0
      | Some _ -> fail "read_ints: non-int slot")
