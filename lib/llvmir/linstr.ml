(** LLVM IR instructions.

    Loop and HLS-related metadata attaches to instructions as a simple
    key/value list ([imeta]); the printer renders it in an
    [!md{key = value}] suffix.  Modern loop hints use the upstream keys
    ([llvm.loop.unroll.count], ...); the adaptor's metadata-translation
    pass replaces them with Vitis-style [_ssdm_op_Spec*] marker calls. *)

type ibinop =
  | Add | Sub | Mul | SDiv | UDiv | SRem | URem
  | Shl | LShr | AShr | And | Or | Xor

type fbinop = FAdd | FSub | FMul | FDiv | FRem

type icmp =
  | IEq | INe | ISlt | ISle | ISgt | ISge | IUlt | IUle | IUgt | IUge

type fcmp = FOeq | FOne | FOlt | FOle | FOgt | FOge | FOrd | FUno

type cast =
  | Trunc | Zext | Sext | Fptrunc | Fpext | Fptosi | Sitofp
  | Ptrtoint | Inttoptr | Bitcast

type meta = MInt of int | MStr of string

module Sym = Support.Interner

type opcode =
  | IBin of ibinop * Lvalue.t * Lvalue.t
  | FBin of fbinop * Lvalue.t * Lvalue.t
  | Icmp of icmp * Lvalue.t * Lvalue.t
  | Fcmp of fcmp * Lvalue.t * Lvalue.t
  | Alloca of Ltype.t * int  (** element type, count *)
  | Load of Ltype.t * Lvalue.t  (** loaded type, pointer *)
  | Store of Lvalue.t * Lvalue.t  (** value, pointer *)
  | Gep of {
      inbounds : bool;
      src_ty : Ltype.t;  (** pointee type the indices walk *)
      base : Lvalue.t;
      idxs : Lvalue.t list;
    }
  | Cast of cast * Lvalue.t * Ltype.t
  | Select of Lvalue.t * Lvalue.t * Lvalue.t
  | Phi of (Lvalue.t * Sym.t) list  (** (incoming value, pred label) *)
  | Call of { callee : string; ret : Ltype.t; args : Lvalue.t list }
  | ExtractValue of Lvalue.t * int list
  | InsertValue of Lvalue.t * Lvalue.t * int list  (** agg, elt, path *)
  | Freeze of Lvalue.t
  | Ret of Lvalue.t option
  | Br of Sym.t
  | CondBr of Lvalue.t * Sym.t * Sym.t
  | Switch of Lvalue.t * Sym.t * (int * Sym.t) list
  | Unreachable

type t = {
  result : Sym.t;  (** SSA name; the empty symbol when void *)
  ty : Ltype.t;  (** result type; [Void] when none *)
  op : opcode;
  imeta : (string * meta) list;
}

(** [result] is accepted as text and interned here, so construction
    sites stay string-typed; [""] means void. *)
let make ?(result = "") ?(ty = Ltype.Void) op =
  { result = Sym.intern result; ty; op; imeta = [] }

(** Result name as text ([""] when void). *)
let result_name i = Sym.name i.result

let has_result i = not (Sym.is_empty i.result)

let is_terminator i =
  match i.op with
  | Ret _ | Br _ | CondBr _ | Switch _ | Unreachable -> true
  | _ -> false

(** Instruction has no side effects and can be removed if unused.
    Calls are conservatively impure (intrinsic purity is refined by the
    passes that know the intrinsic table). *)
let is_pure i =
  match i.op with
  | IBin _ | FBin _ | Icmp _ | Fcmp _ | Gep _ | Cast _ | Select _ | Phi _
  | ExtractValue _ | InsertValue _ | Freeze _ ->
      true
  | Alloca _ | Load _ | Store _ | Call _ | Ret _ | Br _ | CondBr _
  | Switch _ | Unreachable ->
      false

(** Operand values of an instruction, in printing order. *)
let operands i =
  match i.op with
  | IBin (_, a, b) | FBin (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) ->
      [ a; b ]
  | Alloca _ -> []
  | Load (_, p) -> [ p ]
  | Store (v, p) -> [ v; p ]
  | Gep { base; idxs; _ } -> base :: idxs
  | Cast (_, v, _) | Freeze v -> [ v ]
  | Select (c, a, b) -> [ c; a; b ]
  | Phi incoming -> List.map fst incoming
  | Call { args; _ } -> args
  | ExtractValue (a, _) -> [ a ]
  | InsertValue (a, v, _) -> [ a; v ]
  | Ret (Some v) -> [ v ]
  | Ret None -> []
  | Br _ -> []
  | CondBr (c, _, _) -> [ c ]
  | Switch (v, _, _) -> [ v ]
  | Unreachable -> []

(** Rebuild the instruction with operands mapped through [f]. *)
let map_operands f i =
  let op =
    match i.op with
    | IBin (o, a, b) -> IBin (o, f a, f b)
    | FBin (o, a, b) -> FBin (o, f a, f b)
    | Icmp (o, a, b) -> Icmp (o, f a, f b)
    | Fcmp (o, a, b) -> Fcmp (o, f a, f b)
    | Alloca _ as op -> op
    | Load (t, p) -> Load (t, f p)
    | Store (v, p) -> Store (f v, f p)
    | Gep g -> Gep { g with base = f g.base; idxs = List.map f g.idxs }
    | Cast (c, v, t) -> Cast (c, f v, t)
    | Select (c, a, b) -> Select (f c, f a, f b)
    | Phi incoming -> Phi (List.map (fun (v, l) -> (f v, l)) incoming)
    | Call c -> Call { c with args = List.map f c.args }
    | ExtractValue (a, path) -> ExtractValue (f a, path)
    | InsertValue (a, v, path) -> InsertValue (f a, f v, path)
    | Freeze v -> Freeze (f v)
    | Ret (Some v) -> Ret (Some (f v))
    | Ret None -> Ret None
    | Br _ as op -> op
    | CondBr (c, t, e) -> CondBr (f c, t, e)
    | Switch (v, d, cases) -> Switch (f v, d, cases)
    | Unreachable -> Unreachable
  in
  { i with op }

(** Successor labels of a terminator (empty for non-terminators). *)
let successors i =
  match i.op with
  | Br l -> [ l ]
  | CondBr (_, t, e) -> [ t; e ]
  | Switch (_, d, cases) -> d :: List.map snd cases
  | _ -> []

(** Rebuild a terminator with successor labels mapped through [f]. *)
let map_successors f i =
  let op =
    match i.op with
    | Br l -> Br (f l)
    | CondBr (c, t, e) -> CondBr (c, f t, f e)
    | Switch (v, d, cases) ->
        Switch (v, f d, List.map (fun (c, l) -> (c, f l)) cases)
    | op -> op
  in
  { i with op }

(* One table per opcode family: every operator with its printed name,
   at the index of the operator's code ([*_code]).  The printer and
   the parser both read these. *)

let ibinops =
  [| (Add, "add"); (Sub, "sub"); (Mul, "mul"); (SDiv, "sdiv");
     (UDiv, "udiv"); (SRem, "srem"); (URem, "urem"); (Shl, "shl");
     (LShr, "lshr"); (AShr, "ashr"); (And, "and"); (Or, "or");
     (Xor, "xor") |]

let fbinops =
  [| (FAdd, "fadd"); (FSub, "fsub"); (FMul, "fmul"); (FDiv, "fdiv");
     (FRem, "frem") |]

let icmps =
  [| (IEq, "eq"); (INe, "ne"); (ISlt, "slt"); (ISle, "sle"); (ISgt, "sgt");
     (ISge, "sge"); (IUlt, "ult"); (IUle, "ule"); (IUgt, "ugt");
     (IUge, "uge") |]

let fcmps =
  [| (FOeq, "oeq"); (FOne, "one"); (FOlt, "olt"); (FOle, "ole");
     (FOgt, "ogt"); (FOge, "oge"); (FOrd, "ord"); (FUno, "uno") |]

let casts =
  [| (Trunc, "trunc"); (Zext, "zext"); (Sext, "sext");
     (Fptrunc, "fptrunc"); (Fpext, "fpext"); (Fptosi, "fptosi");
     (Sitofp, "sitofp"); (Ptrtoint, "ptrtoint"); (Inttoptr, "inttoptr");
     (Bitcast, "bitcast") |]

let ibinop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | SDiv -> 3 | UDiv -> 4 | SRem -> 5
  | URem -> 6 | Shl -> 7 | LShr -> 8 | AShr -> 9 | And -> 10 | Or -> 11
  | Xor -> 12

let fbinop_code = function
  | FAdd -> 0 | FSub -> 1 | FMul -> 2 | FDiv -> 3 | FRem -> 4

let icmp_code = function
  | IEq -> 0 | INe -> 1 | ISlt -> 2 | ISle -> 3 | ISgt -> 4 | ISge -> 5
  | IUlt -> 6 | IUle -> 7 | IUgt -> 8 | IUge -> 9

let fcmp_code = function
  | FOeq -> 0 | FOne -> 1 | FOlt -> 2 | FOle -> 3 | FOgt -> 4 | FOge -> 5
  | FOrd -> 6 | FUno -> 7

let cast_code = function
  | Trunc -> 0 | Zext -> 1 | Sext -> 2 | Fptrunc -> 3 | Fpext -> 4
  | Fptosi -> 5 | Sitofp -> 6 | Ptrtoint -> 7 | Inttoptr -> 8
  | Bitcast -> 9

let string_of_ibinop op = snd ibinops.(ibinop_code op)
let string_of_fbinop op = snd fbinops.(fbinop_code op)
let string_of_icmp p = snd icmps.(icmp_code p)
let string_of_fcmp p = snd fcmps.(fcmp_code p)
let string_of_cast c = snd casts.(cast_code c)

(* The operator a name prints as, if any. *)
let of_name table name =
  Array.find_map (fun (op, n) -> if n = name then Some op else None) table

let ibinop_of_string = of_name ibinops
let fbinop_of_string = of_name fbinops
let icmp_of_string = of_name icmps
let fcmp_of_string = of_name fcmps
let cast_of_string = of_name casts
