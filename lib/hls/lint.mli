(** HLS-oriented lint over adapted IR: II feasibility, partition
    pragma sanity, dead stores, aliasing hazards, and the
    {!Adaptor.Compat} issue family re-surfaced as diagnostics.

    Individual rule passes are internal; {!run} executes the whole
    catalog (or a [?only] subset) and returns the findings. *)

module Diag = Support.Diag

(** The rule registry: id, default severity, one-line summary. *)
val catalog : (string * Diag.severity * string) list

(** Lint the module.  [only] restricts to the given rule ids,
    [werror] upgrades warnings to errors, [top] narrows function-level
    rules to one function.  [am] is the analysis manager that produced
    the module (a fresh one without it): its indexes are reused and
    the functions it verified are not verified again. *)
val run :
  ?only:string list ->
  ?werror:bool ->
  ?top:string ->
  ?am:Llvmir.Analysis.t ->
  Llvmir.Lmodule.t ->
  Diag.t list
