(** Packed struct-of-arrays encoding of one function body.

    Every instruction of a function is a row across flat arrays:
    an opcode word (tag, sub-opcode, flags), the result symbol, a span
    [op_off, op_off+op_len) into a shared operand pool, per-opcode
    scalar payload ([aux0]/[aux1]: interned type, callee string or
    extra-pool offsets), successor/incoming labels in a symbol pool,
    switch case values and aggregate paths in an int pool, and block
    membership.  Rows are in layout order, so intra-block ordering is
    index comparison and a block is a contiguous span.

    The arena is built once per function index ({!Findex}) and is the
    storage hot passes iterate: DCE, CSE, constant folding and GEP
    canonicalisation walk int arrays and the operand pool without
    touching the boxed [Linstr.t] records.  Boxed instructions are
    materialised only at the pass boundary ({!instr}, {!to_blocks}):
    rows never mutated come back physically identical to the input,
    so an unchanged function round-trips with zero allocation and
    byte-identical printing.

    Mutation discipline: a pass may {!kill} rows and rewrite operands
    ({!set_opnd}, span replacement) {e only} when it will return a new
    function value built from this arena — the analysis manager keys
    caches by physical function identity, so the mutated arena is
    unreachable from the stale function value afterwards. *)

module Sym = Support.Interner

type t

(** Encode a function body.  Operand [Lvalue.t] values are shared into
    the pool (not copied); instruction records are retained for
    identity materialisation. *)
val of_func : Lmodule.func -> t

(** {1 Shape} *)

val n_instrs : t -> int
val n_blocks : t -> int

(** Rows of block [bi] are [block_start..block_stop - 1]. *)
val block_start : t -> int -> int

val block_stop : t -> int -> int
val block_label : t -> int -> Sym.t

(** Block number of row [k]. *)
val block_of : t -> int -> int

(** {1 Opcode tags}

    The opcode word packs [tag lor (sub lsl 8)] plus flag bits; [sub]
    numbers the sub-opcode ([Linstr.ibinop] etc.) in declaration
    order.  [Ret] uses [sub = 1] when it carries a value. *)

val tag_ibin : int
val tag_fbin : int
val tag_icmp : int
val tag_fcmp : int
val tag_alloca : int
val tag_load : int
val tag_store : int
val tag_gep : int
val tag_cast : int
val tag_select : int
val tag_phi : int
val tag_call : int
val tag_extractvalue : int
val tag_insertvalue : int
val tag_freeze : int
val tag_ret : int
val tag_br : int
val tag_condbr : int
val tag_switch : int
val tag_unreachable : int

val tag : t -> int -> int
val sub : t -> int -> int

(** Decoded sub-opcode of a row (valid for the matching tag only). *)
val ibinop : t -> int -> Linstr.ibinop

val fbinop : t -> int -> Linstr.fbinop
val icmp : t -> int -> Linstr.icmp
val cast : t -> int -> Linstr.cast

(** Full opcode word (tag, sub and flag bits) — a ready-made first key
    component for value numbering. *)
val opword : t -> int -> int

val inbounds : t -> int -> bool

(** Mirrors {!Linstr.is_pure} on the packed tag. *)
val pure_tag : int -> bool

(** {1 Row reads} *)

val result : t -> int -> Sym.t
val result_ty : t -> int -> Ltype.t
val op_off : t -> int -> int
val op_len : t -> int -> int

(** Per-opcode scalar payload: interned-type index for
    [Alloca]/[Load]/[Cast]/[Gep], callee-string index and return-type
    index for [Call], alloca count, extra-pool offset and case count
    for [Switch]/[ExtractValue]/[InsertValue]. *)
val aux0 : t -> int -> int

val aux1 : t -> int -> int
val ty_of_ix : t -> int -> Ltype.t
val callee : t -> int -> string

(** Int pool read (switch case values, aggregate paths). *)
val xt : t -> int -> int

(** {1 Operand pool} *)

val pool_len : t -> int

(** Operand value at pool slot [s]. *)
val opnd : t -> int -> Lvalue.t

(** Packed identity key of slot [s]: register and global operands key
    by symbol, constants by interned constant-pool index (so equal
    keys mean structurally equal typed operands — SSA gives each
    register one type).  Constant interning is lazy and memoised per
    slot. *)
val opnd_key : t -> int -> int

(** {!opnd_key} for a value not read from the pool (a substitution
    result). *)
val key_of_value : t -> Lvalue.t -> int

(** {1 Flags and mutation} *)

val is_dead : t -> int -> bool
val kill : t -> int -> unit
val is_dirty : t -> int -> bool

(** Replace the operand at absolute slot [s] of row [k]; marks the row
    dirty so materialisation decodes it. *)
val set_opnd : t -> int -> int -> Lvalue.t -> unit

(** Append a copy of slot [s] to the pool (span surgery). *)
val push_copy : t -> int -> unit

(** Point row [k] at a freshly pushed span; marks it dirty. *)
val set_span : t -> int -> off:int -> len:int -> unit

val set_aux0 : t -> int -> int -> unit
val set_inbounds : t -> int -> bool -> unit

(** {1 Materialisation} *)

(** Boxed instruction for row [k]: the retained input record when the
    row is clean, else a decode of the packed row (memoised, clearing
    the dirty bit). *)
val instr : t -> int -> Linstr.t

(** Decode row [k] purely from the packed arrays and pools — never the
    retained record.  Test hook for the round-trip law. *)
val decode_packed : t -> int -> Linstr.t

(** Blocks with dead rows dropped; clean rows come back physically
    identical to the input instructions. *)
val to_blocks : t -> Lmodule.block list

val live_count : t -> int

(** Copy with dead rows dropped and dirty rows materialised; pools are
    shared (append-only).  Pairs with {!Findex.of_arena} to seed the
    analysis cache for a pass's output function. *)
val compact : t -> t

(** Structural invariants (spans in bounds, layout order total,
    consistent block table); [Error] describes the first violation. *)
val check : t -> (unit, string) result
