(** Per-function index over the packed {!Iarena} encoding: def table,
    use-def/def-use edges, block membership and use counts — computed
    once and shared by every analysis and pass that used to rebuild
    its own string tables ad hoc.

    SSA names map to dense {e local ids}; defs, use counts and user
    edges are flat arrays over those ids.  Passes that want the packed
    storage reach it through {!arena}; everything else keeps the
    boxed-instruction view of the original index.

    The index is a pure snapshot of one [Lmodule.func] value; any pass
    that rewrites the function must use a fresh index (or one the
    {!Pass} analysis manager revalidated) afterwards. *)

module Sym = Support.Interner

type def_site =
  | Param of int  (** defined by the [i]-th function parameter *)
  | Instr of int  (** defined by the instruction at this arena index *)

type t

val build : Lmodule.func -> t

(** Index a prebuilt arena.  [f] must be the function the arena
    materialises — {!build} pairs the two; passes seeding the analysis
    cache pair {!Iarena.compact} with their output function. *)
val of_arena : Lmodule.func -> Iarena.t -> t

(** The packed storage this index was computed over. *)
val arena : t -> Iarena.t

(** Rebase a cached index onto a rewritten function value.  Only valid
    when the rewrite changed no instruction — the analysis-manager
    preserve contract for the findex analysis. *)
val rebase : t -> Lmodule.func -> t

val func : t -> Lmodule.func
val n_instrs : t -> int
val n_blocks : t -> int

(** Instruction at arena index [k]; the arena is in layout order, so
    intra-block ordering is plain index comparison. *)
val instr : t -> int -> Linstr.t

val block_of_instr : t -> int -> int

(** Unique def site of an SSA name; [None] for names the function does
    not define (undefined references). *)
val def : t -> Sym.t -> def_site option

(** Defining instruction; [None] for parameters and unknown names. *)
val def_instr : t -> Sym.t -> Linstr.t option

(** {1 Dense local-id view}

    SSA names (parameters, results, register operands) get dense ids
    [0 .. n_locals - 1]; the flat tables below let DCE-style cascades
    run without hashing. *)

val n_locals : t -> int

(** Local id of a name; [-1] when the function never mentions it. *)
val local_of : t -> Sym.t -> int

(** Local id of the register at operand-pool slot [s]; [-1] for
    globals and constants. *)
val local_of_slot : t -> int -> int

(** Local id of row [k]'s result; [-1] for void instructions. *)
val local_of_res : t -> int -> int

(** Fresh copy of the per-local operand-occurrence counts — a mutable
    working set for kill cascades. *)
val use_counts : t -> int array

val def_of_local : t -> int -> def_site option

(** Apply [f] to each user of [n] (arena indices, reverse layout
    order) without building a list. *)
val iter_users : t -> Sym.t -> (int -> unit) -> unit

(** Arena indices of the instructions using [n], in layout order. *)
val users : t -> Sym.t -> int list

(** Operand occurrences of [n] across the function (0 when unused). *)
val use_count : t -> Sym.t -> int

val is_used : t -> Sym.t -> bool

(** Root of a pointer value: walk GEP/bitcast chains back to the
    underlying parameter, alloca or global name. *)
val base_pointer : t -> Lvalue.t -> Sym.t option

(** Path-compress a substitution table: every key maps straight to its
    final value, so a rewrite resolves each operand with one lookup. *)
val compress_chains : Lvalue.t Sym.Tbl.t -> Lvalue.t Sym.Tbl.t

(** [rewrite_users idx subst] writes the path-compressed [subst] into
    the operand slots of every live user (per [idx]) of a substituted
    name, in place in [idx]'s arena, and returns the compressed table.
    The arena-backed passes' substitution step. *)
val rewrite_users : t -> Lvalue.t Sym.Tbl.t -> Lvalue.t Sym.Tbl.t

(** Convenience: substitute over a function without a prebuilt index. *)
val substitute_func : Lvalue.t Sym.Tbl.t -> Lmodule.func -> Lmodule.func
