(** May/must/no-alias oracle over {!Findex.base_pointer} root chains
    and GEP subscript deltas.

    Pointer values are classified by the {e root} their GEP/bitcast
    chain walks back to: a function parameter, a local [alloca], a
    module global, or an unresolvable definition (phi, select, load,
    call, [inttoptr]).  Two pointers with distinct {e known} roots
    never alias: allocas are fresh storage, globals are distinct
    objects, and parameters are noalias-by-construction under the HLS
    interface contract (each top-level array maps to its own memory
    port).  Pointers sharing a root are compared subscript-by-subscript
    with the same affine forms {!Memdep} uses for its delta test.

    The affine-form machinery lives here (it predates this module in
    {!Memdep}, which now re-exports it) so both the dependence analysis
    and the alias oracle agree on what a subscript means. *)

module Sym = Support.Interner

(* ------------------------------------------------------------------ *)
(* Affine forms                                                       *)
(* ------------------------------------------------------------------ *)

(** [sum of coeff * atom + konst]; [terms] sorted by atom {e name} (so
    form layout never depends on interning order) with no zero
    coefficients.  Atoms are SSA register (or global) symbols. *)
type form = { terms : (Sym.t * int) list; konst : int }

val const_form : int -> form
val atom_form : Sym.t -> form
val form_add : form -> form -> form
val form_sub : form -> form -> form
val form_scale : int -> form -> form
val coeff_of : form -> Sym.t -> int
val drop_atom : form -> Sym.t -> form

(** Expand a value into an affine form over atoms; registers with a
    non-affine definition become atoms themselves. *)
val form_of : Findex.t -> Lvalue.t -> form option

(* ------------------------------------------------------------------ *)
(* Roots                                                              *)
(* ------------------------------------------------------------------ *)

type root =
  | Rparam of int  (** function parameter (position) *)
  | Ralloca  (** locally allocated storage *)
  | Rglobal  (** module global *)
  | Runknown  (** phi/select/load/call/[inttoptr]-defined pointer *)

(** Root symbol and classification of a pointer value; [None] for
    values that are not register/global pointers (e.g. [null]).

    With [?globals], names with no local definition are globals only
    when listed and [Runknown] otherwise; without it, verified IR is
    trusted (an undefined use cannot pass {!Lverifier}), so any
    def-less root is taken as a global reference. *)
val root_of :
  ?globals:Sym.Set.t -> Findex.t -> Lvalue.t -> (Sym.t * root) option

(** Subscript forms of a pointer relative to its root: one form per
    GEP index, walking bitcasts transparently; [Some []] when the
    pointer {e is} the root; [None] when the address is not root +
    (at most) one GEP. *)
val subscripts : Findex.t -> Lvalue.t -> form list option

(* ------------------------------------------------------------------ *)
(* The oracle                                                         *)
(* ------------------------------------------------------------------ *)

type verdict = No_alias | May_alias | Must_alias

val verdict_to_string : verdict -> string

(** Do the {e base regions} of two pointers overlap?  [Must_alias]
    when they share a known root (same array, whatever the
    subscripts), [No_alias] for distinct known roots, [May_alias]
    when either root is unresolvable.  This is the question a
    dependence analysis asks before running its own subscript test. *)
val base_alias : Findex.t -> Lvalue.t -> Lvalue.t -> verdict

(** [may_aliased_params idx f params] — for each of [params], in order,
    the first load or store pointer of [f] (program order) whose base
    region {!base_alias} calls [May_alias] against the parameter: an
    access that may land in the parameter's array without being
    attributable to it.  Parameters without one are left out. *)
val may_aliased_params :
  Findex.t -> Lmodule.func -> Lmodule.param list ->
  (Lmodule.param * Lvalue.t) list

(** Point-alias query: can these two addresses be equal {e at the same
    program point} (one valuation of the atoms)?  Symmetric;
    [No_alias] and [Must_alias] are mutually exclusive.  Same-root
    pointers compare subscript deltas (all-zero ⟹ must, any provably
    nonzero constant ⟹ no); GEPs walking different source types are
    never compared element-wise. *)
val alias : Findex.t -> Lvalue.t -> Lvalue.t -> verdict
