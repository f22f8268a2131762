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

(** [reg name ty] builds a register from its textual name, interning
    it — the string-facing constructor for builders and tests. *)
val reg : string -> Ltype.t -> t

val global : string -> Ltype.t -> t
val ci : ?ty:Ltype.t -> int -> t
val ci32 : int -> t
val ci64 : int -> t
val ci1 : bool -> t
val cf : ?ty:Ltype.t -> float -> t
val undef : Ltype.t -> t
val type_of : t -> Ltype.t
val const_to_string : const -> string
val to_string : t -> string

(** Value with its type prefix, as operands print in .ll files. *)
val typed_to_string : t -> string

val is_const : t -> bool
val const_int_value : t -> int option

(** Same SSA register? *)
val same_reg : t -> t -> bool

(** Structural equality, with float constants compared by bit pattern
    ([0.0] and [-0.0] differ; a NaN equals the same NaN). *)
val equal : t -> t -> bool
