(** LLVM IR containers: blocks, functions, globals, modules — plus the
    rewrite utilities every pass builds on.

    Block labels are interned symbols; per-function def/use/def-map
    tables live in {!Findex} (built once per function and shared), not
    here. *)

module Sym = Support.Interner

type param = {
  pname : string;
  pty : Ltype.t;
  pattrs : (string * string) list;
      (** e.g. [("fpga.interface", "bram")], [("partition.factor", "4")] *)
}

type block = { label : Sym.t; insts : Linstr.t list }

type func = {
  fname : string;
  ret_ty : Ltype.t;
  params : param list;
  blocks : block list;  (** head = entry *)
  fattrs : (string * string) list;
}

type global = {
  gname : string;
  gty : Ltype.t;  (** content type *)
  ginit : Lvalue.const option;
  gconst : bool;
}

(** External declaration (intrinsics, HLS spec ops). *)
type decl = { dname : string; dret : Ltype.t; dargs : Ltype.t list }

type t = {
  mname : string;
  funcs : func list;
  globals : global list;
  decls : decl list;
}

val empty : string -> t
val find_func : t -> string -> func option
val find_func_exn : t -> string -> func
val find_block : func -> Sym.t -> block option
val find_block_exn : func -> Sym.t -> block
val entry : func -> block
val find_decl : t -> string -> decl option

(** Add a declaration if not already present. *)
val ensure_decl : t -> decl -> t

val map_funcs : (func -> func) -> t -> t

(** [share_unchanged ~prev m] — reuse [prev]'s physical function
    values wherever [m]'s same-named function is structurally equal
    (polymorphic compare; NaN-safe).  Restores the physical identity
    the {!Analysis} caches and the incremental verifier key on after
    a pass that rebuilds every function unconditionally. *)
val share_unchanged : prev:t -> t -> t

(** Total instruction count — the "IR size" metric pass tracing
    reports deltas of. *)
val instr_count : t -> int

val iter_insts : (Linstr.t -> unit) -> func -> unit
val fold_insts : ('a -> Linstr.t -> 'a) -> 'a -> func -> 'a
val inst_count : func -> int

(** Rewrite every instruction; [f] returns the replacement list. *)
val rewrite_insts : (Linstr.t -> Linstr.t list) -> func -> func

(** Map all operand values through [f] everywhere in the function. *)
val map_values : (Lvalue.t -> Lvalue.t) -> func -> func

(** Fresh-name generator seeded with every name already in [fn]; the
    names are read on the generator's first use. *)
val namegen : func -> Support.Namegen.t
