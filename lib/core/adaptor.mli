(** The MLIR HLS adaptor for LLVM IR — pipeline driver.

    Takes LLVM IR as produced by the modern MLIR lowering and emits
    HLS-readable IR: no opaque pointers, no memref descriptors, no
    modern intrinsics, directives carried by [_ssdm_op_Spec*] markers,
    interfaces annotated on the top function.  {!Compat.check} must
    return no issues on the output (asserted when the pipeline is
    strict). *)

(* This is the library's root module: siblings are only reachable
   through these aliases, which are the supported public paths. *)
module Hls_names = Hls_names
module Legalize_intrinsics = Legalize_intrinsics
module Eliminate_descriptors = Eliminate_descriptors
module Typed_pointers = Typed_pointers
module Canonicalize_geps = Canonicalize_geps
module Translate_metadata = Translate_metadata
module Interfaces = Interfaces
module Compat = Compat

(** Per-pass statistics and diagnostics accumulated over one run.  It
    carries no times, so two runs of one input render the same text;
    per-pass times are the [?trace] events of {!run}. *)
type report = {
  intrinsics : Legalize_intrinsics.stats;
  descriptors : Eliminate_descriptors.stats;
  pointers : Typed_pointers.stats;
  geps : Canonicalize_geps.stats;
  metadata : Translate_metadata.stats;
  interfaces : Interfaces.stats;
  issues_before : Compat.issue list;
  issues_after : Compat.issue list;
  diagnostics : Support.Diag.t list;
}

val fresh_report : unit -> report

(** The configurable pass pipeline: an ordered list of named passes
    with per-pass enablement, an optional top function, and a strict
    flag (strict runs assert a clean {!Compat.check} on the output). *)
module Pipeline : sig
  type pass = {
    pname : string;
    enabled : bool;
    prun :
      report ->
      am:Llvmir.Analysis.t ->
      top:string option ->
      Llvmir.Lmodule.t ->
      Llvmir.Lmodule.t;
  }

  type t = { passes : pass list; top : string option; strict : bool }

  val legalize_intrinsics : pass
  val eliminate_descriptors : pass
  val eliminate_descriptors_flat : pass
  val typed_pointers : pass
  val canonicalize_geps : pass
  val translate_metadata : pass
  val lower_interfaces : pass

  (** Every known pass, in canonical order. *)
  val registry : pass list

  val known_names : string list
  val find_pass : string -> pass option
  val default : t
  val no_descriptor_elimination : t
  val flat_views : t
  val with_top : string option -> t -> t
  val relaxed : t -> t
  val enabled_names : t -> string list
  val describe : t -> string
  val unknown_pass_diag : string -> Support.Diag.t
  val set_enabled : string -> bool -> t -> (t, Support.Diag.t) result
  val disable : string -> t -> (t, Support.Diag.t) result

  (** Build a pipeline that enables exactly [names], preserving
      canonical order; unknown names are a [Diag] error. *)
  val of_names :
    ?top:string -> ?strict:bool -> string list -> (t, Support.Diag.t) result
end

(** Run the pipeline's enabled passes over a module through
    {!Llvmir.Pass.run_pipeline}: [?trace] receives one event per pass
    (stage ["adaptor"]), and the output is verified even when every
    pass is disabled.  Diagnostics of severity [Error] (including
    strict-mode compat failures) produce [Error diags].  [?am] is the
    compile job's analysis manager: the passes reuse what earlier
    stages built, and the estimator reuses what they leave (a fresh
    manager without it). *)
val run :
  ?pipeline:Pipeline.t ->
  ?trace:Support.Tracing.hook ->
  ?am:Llvmir.Analysis.t ->
  Llvmir.Lmodule.t ->
  (Llvmir.Lmodule.t * report, Support.Diag.t list) result

(** Like {!run} but raises {!Support.Diag.Failed} on error. *)
val run_exn :
  ?pipeline:Pipeline.t ->
  ?trace:Support.Tracing.hook ->
  Llvmir.Lmodule.t ->
  Llvmir.Lmodule.t * report

val report_to_string : report -> string
