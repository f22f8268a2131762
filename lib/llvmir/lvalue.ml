(** LLVM IR values: constants, virtual registers and globals.

    Register and global names are interned symbols
    ({!Support.Interner.t}), so value equality and hashing are O(1);
    the parser and printer translate to and from text at the module
    boundary only. *)

module Sym = Support.Interner

type const =
  | CInt of int * Ltype.t
  | CFloat of float * Ltype.t
  | CNull of Ltype.t  (** null pointer of the given pointer type *)
  | CUndef of Ltype.t
  | CZero of Ltype.t  (** zeroinitializer *)

type t =
  | Reg of Sym.t * Ltype.t  (** [%name] — function-local SSA register *)
  | Global of Sym.t * Ltype.t  (** [@name]; type is the pointer type *)
  | Const of const

let reg name ty = Reg (Sym.intern name, ty)
let global name ty = Global (Sym.intern name, ty)
let ci ?(ty = Ltype.I64) v = Const (CInt (v, ty))
let ci32 v = Const (CInt (v, Ltype.I32))
let ci64 v = Const (CInt (v, Ltype.I64))
let ci1 b = Const (CInt ((if b then 1 else 0), Ltype.I1))
let cf ?(ty = Ltype.Float) v = Const (CFloat (v, ty))
let undef ty = Const (CUndef ty)

let type_of = function
  | Reg (_, ty) | Global (_, ty) -> ty
  | Const (CInt (_, ty) | CFloat (_, ty) | CNull ty | CUndef ty | CZero ty) ->
      ty

let const_to_string = function
  | CInt (v, Ltype.I1) -> if v <> 0 then "true" else "false"
  | CInt (v, _) -> string_of_int v
  | CFloat (v, _) -> Support.Float_lit.to_string v
  | CNull _ -> "null"
  | CUndef _ -> "undef"
  | CZero _ -> "zeroinitializer"

let to_string = function
  | Reg (n, _) -> "%" ^ Sym.name n
  | Global (n, _) -> "@" ^ Sym.name n
  | Const c -> const_to_string c

(** Value with its type prefix, as operands print in .ll files. *)
let typed_to_string v =
  Ltype.to_string (type_of v) ^ " " ^ to_string v

let is_const = function Const _ -> true | _ -> false

let const_int_value = function
  | Const (CInt (v, _)) -> Some v
  | _ -> None

(** Same SSA register? *)
let same_reg a b =
  match (a, b) with Reg (x, _), Reg (y, _) -> Sym.equal x y | _ -> false

(* Float constants compare by bit pattern: [=] takes [0.0] and [-0.0]
   for one value, and no NaN for itself. *)
let equal (a : t) (b : t) =
  match (a, b) with
  | Const (CFloat (x, tx)), Const (CFloat (y, ty)) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      && Ltype.equal tx ty
  | _ -> a = b
