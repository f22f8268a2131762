(** Per-function memory effect summaries, propagated bottom-up over
    the call graph to a module-level footprint.

    A function's {!footprint} records, per pointer parameter and per
    module global, whether the function (or anything it transitively
    calls) may read or write that storage.  Local allocas never
    escape into a footprint.  Summaries are {e transitively closed}:
    a caller's footprint already contains every callee's effects
    translated through the call's argument binding, so inlining a call
    never grows the caller's footprint — which is what lets every pass
    declare the analysis preserved (see {!Analysis}).

    A footprint is {e open} ([fp_unknown <> []]) when the function
    touches memory the analysis cannot attribute: a call to an
    undefined (non-intrinsic) function, a load/store through an
    unresolvable pointer ([<indirect>]), or a pointer value escaping
    into memory ([<escape>]).  HLS marker intrinsics ([_ssdm_op_*],
    [llvm.*], [__mhls_*]) are effect-free by contract.

    Everything here is an over-approximation: [may read/write], never
    [must]. *)

module Sym = Support.Interner

type mode = No_access | Read | Write | Read_write

val mode_join : mode -> mode -> mode
val mode_to_string : mode -> string
val reads : mode -> bool
val writes : mode -> bool

type footprint = {
  fp_params : mode array;  (** by parameter position; scalars stay [No_access] *)
  fp_globals : mode Sym.Map.t;  (** only touched globals appear *)
  fp_unknown : string list;
      (** sorted, deduplicated reasons the footprint is open: callee
          names, [<indirect>], [<escape>]; [[]] = closed *)
}

(** No unattributable effects? *)
val closed : footprint -> bool

(** Mode of a global in a footprint ([No_access] when absent). *)
val global_mode : footprint -> Sym.t -> mode

(** Module summary: one footprint per defined function. *)
type t

(** Callee names treated as effect-free HLS markers / intrinsics. *)
val is_inert_callee : string -> bool

(** Bottom-up fixpoint over the call graph (recursion converges: the
    per-function lattice is finite and joins are monotone).  [findex]
    supplies each function's index (default: a fresh build);
    {!Analysis.effects} passes its own cached lookup. *)
val summarize : ?findex:(Lmodule.func -> Findex.t) -> Lmodule.t -> t

val footprint : t -> string -> footprint option

(** Deterministic rendering (functions in module order, globals sorted
    by name) — the golden-test format. *)
val footprint_to_string : Lmodule.func -> footprint -> string

val to_string : Lmodule.t -> t -> string
