(** Per-function index over the function's own instruction records:
    the rows in layout order, their blocks, and the def table (the def
    site of every parameter and result) — computed once and shared by
    every analysis and pass through the {!Analysis} manager.  It holds
    no def-use edges and no use counts: a pass that needs uses scans
    the rows' operands itself.

    Rows are the function's [Linstr.t] records in layout order.  A pass
    reads them, marks what it drops in a bitmap of its own and builds
    its output blocks from the records it keeps ({!rebuild}); the index
    itself never changes.

    The index is a pure snapshot of one [Lmodule.func] value; any pass
    that rewrites the function must use a fresh index (or one the
    {!Pass} analysis manager revalidated) afterwards. *)

module Sym = Support.Interner

type def_site =
  | Param of int  (** defined by the [i]-th function parameter *)
  | Instr of int  (** defined by the instruction at this row *)

type t

val build : Lmodule.func -> t

(** Rebase a cached index onto a rewritten function value.  Only valid
    when the rewrite changed no instruction — the analysis-manager
    preserve contract for the findex analysis. *)
val rebase : t -> Lmodule.func -> t

val func : t -> Lmodule.func
val n_instrs : t -> int
val n_blocks : t -> int

(** Instruction at row [k]; rows are in layout order, so intra-block
    ordering is plain index comparison. *)
val instr : t -> int -> Linstr.t

val block_of_instr : t -> int -> int

(** Rows of block [bi] are [block_start bi .. block_stop bi - 1]. *)
val block_start : t -> int -> int

val block_stop : t -> int -> int

(** [rebuild idx row] — the blocks of [idx]'s function with row [k]
    replaced by [row k], the instructions that take its place ([[]]
    drops it).  Labels and block order are unchanged. *)
val rebuild : t -> (int -> Linstr.t list) -> Lmodule.block list

(** Unique def site of an SSA name; [None] for names the function does
    not define (undefined references). *)
val def : t -> Sym.t -> def_site option

(** Defining instruction; [None] for parameters and unknown names. *)
val def_instr : t -> Sym.t -> Linstr.t option

(** {1 Dense local-id view}

    Defined names (parameters and results) get dense ids, so a
    per-name table can be a flat array. *)

(** Local ids are [0 .. n_locals - 1]. *)
val n_locals : t -> int

(** Local id of a name; [-1] when the function does not define it. *)
val local_of : t -> Sym.t -> int

(** Local id of row [k]'s result; [-1] for void instructions. *)
val local_of_res : t -> int -> int

(** Root of a pointer value: walk GEP/bitcast chains back to the
    underlying parameter, alloca or global name. *)
val base_pointer : t -> Lvalue.t -> Sym.t option

(** {1 Substitution} *)

(** Path-compress a substitution table: every key maps straight to its
    final value, so a rewrite resolves each operand with one lookup. *)
val compress_chains : Lvalue.t Sym.Tbl.t -> Lvalue.t Sym.Tbl.t

(** A register's image under a substitution (one lookup); any other
    value unchanged. *)
val resolve : Lvalue.t Sym.Tbl.t -> Lvalue.t -> Lvalue.t

(** An instruction with its operands {!resolve}d; the record itself,
    physically, when no operand is a substituted register. *)
val substitute_instr : Lvalue.t Sym.Tbl.t -> Linstr.t -> Linstr.t

(** Convenience: substitute over a function without a prebuilt index. *)
val substitute_func : Lvalue.t Sym.Tbl.t -> Lmodule.func -> Lmodule.func
