(** End-to-end compilation flows — the two paths the paper compares —
    plus co-simulation and comparison reporting.  This interface is the
    library's public surface: internal helpers (the [_exn] front-end
    variant, input-data plumbing) stay behind it.

    {b Flow A (direct IR, the paper's proposal)}:
    mhir → canonicalize → directive-free modern LLVM lowering → LLVM
    cleanup pipeline → apply-directives → {e adaptor} → HLS backend.

    {b Flow B (HLS C++ baseline, ScaleHLS-style)}:
    mhir → canonicalize → HLS C++ emission → mini-C front-end (Vitis
    Clang analogue) → same LLVM cleanup pipeline → HLS backend.

    Error convention: [result]-returning functions are the primary
    names; {!run_exn} is the one [_exn] wrapper, for process
    boundaries (CLI, bench) only. *)

type flow_kind = Direct_ir | Hls_cpp

(** The canonical name that labels, reports and cache keys print. *)
val flow_name : flow_kind -> string

(** Every name a flag, manifest or request accepts: each flow's
    {!flow_name} and its short alias ([direct], [cpp]). *)
val flow_names : (string * flow_kind) list

val flow_of_name : string -> flow_kind option

type result = {
  kernel : string;
  kind : flow_kind;
  sched : Hls_backend.Backend.sched;  (** scheduling discipline used *)
  llvm : Llvmir.Lmodule.t;  (** the IR handed to the HLS backend *)
  hls : Hls_backend.Estimate.report;
  seconds : float;  (** front-of-HLS compile time *)
  cpp_source : string option;
  adaptor_report : Adaptor.report option;
}

(** Shared LLVM cleanup pipeline (stands in for Vitis' middle-end
    [opt] run); also the cleanup stage of both flows.  [?am] is the
    compile job's analysis manager (a fresh one without it). *)
val llvm_cleanup :
  ?am:Llvmir.Analysis.t ->
  ?trace:Support.Tracing.hook ->
  Llvmir.Lmodule.t ->
  Llvmir.Lmodule.t

(** Flow A's directive-free prefix: canonicalize, lower with a loop id
    on each latch in place of the directives ({!Lowering.Lower.directive_free}),
    verify, clean up.  Every design point of a kernel gives these
    bytes.  [?am] as for {!direct_ir_frontend}. *)
val direct_ir_prefix :
  ?trace:Support.Tracing.hook ->
  ?am:Llvmir.Analysis.t ->
  Mhir.Ir.modul ->
  Llvmir.Lmodule.t

(** Flow A front-end: mhir to HLS-ready LLVM IR through the adaptor.
    Verifies [m], takes its directive-free cleanup output from
    [?prefix] ({!direct_ir_prefix} by default), writes [m]'s directives
    into it ({!Lowering.Apply_directives}, one ["lower"]
    ["apply-directives"] event) and adapts the result.  Returns [Error
    diagnostics] when the (strict) adaptor pipeline leaves blocking
    compatibility issues; no exception escapes.  The verifier, the
    cleanup pipeline and the adaptor share [?am] (a fresh manager
    without it), which afterwards holds the output's analyses for the
    estimator or lint. *)
val direct_ir_frontend :
  ?pipeline:Adaptor.Pipeline.t ->
  ?trace:Support.Tracing.hook ->
  ?am:Llvmir.Analysis.t ->
  ?prefix:(Mhir.Ir.modul -> Llvmir.Lmodule.t) ->
  Mhir.Ir.modul ->
  (Llvmir.Lmodule.t * Adaptor.report * float, Support.Diag.t list)
  Stdlib.result

(** Flow B front-end: mhir to HLS-ready LLVM IR through C++ text.
    Returns (module, C++ source, seconds).  [?am] as for
    {!direct_ir_frontend}. *)
val hls_cpp_frontend :
  ?trace:Support.Tracing.hook ->
  ?am:Llvmir.Analysis.t ->
  Mhir.Ir.modul ->
  Llvmir.Lmodule.t * string * float

(** Lint a kernel: run Flow A's front-end without the strict gate and
    hand the adapted IR to the {!Hls_backend.Lint} rule registry,
    under one analysis manager. *)
val lint_kernel :
  ?directives:Workloads.Kernels.directives ->
  ?only:string list ->
  ?werror:bool ->
  ?pipeline:Adaptor.Pipeline.t ->
  Workloads.Kernels.kernel ->
  Support.Diag.t list

(** Run one flow on a kernel and synthesize under the chosen
    scheduling discipline ([sched], default
    {!Hls_backend.Backend.Static}).  [Error diagnostics] when the
    strict adaptor gate blocks (direct-IR flow only).  One analysis
    manager, reporting to [trace], serves every stage of the job.
    [?prefix] as for {!direct_ir_frontend}: the batch driver passes its
    per-kernel memo. *)
val run :
  ?directives:Workloads.Kernels.directives ->
  ?pipeline:Adaptor.Pipeline.t ->
  ?clock_ns:float ->
  ?sched:Hls_backend.Backend.sched ->
  ?trace:Support.Tracing.hook ->
  ?prefix:(Mhir.Ir.modul -> Llvmir.Lmodule.t) ->
  Workloads.Kernels.kernel ->
  flow_kind ->
  (result, Support.Diag.t list) Stdlib.result

(** Exception-raising convenience for process boundaries: raises
    {!Support.Diag.Failed} where {!run} returns [Error]. *)
val run_exn :
  ?directives:Workloads.Kernels.directives ->
  ?pipeline:Adaptor.Pipeline.t ->
  ?clock_ns:float ->
  ?sched:Hls_backend.Backend.sched ->
  ?trace:Support.Tracing.hook ->
  Workloads.Kernels.kernel ->
  flow_kind ->
  result

(* ------------------------------------------------------------------ *)
(* Co-simulation                                                      *)
(* ------------------------------------------------------------------ *)

type cosim_outcome = {
  ok : bool;
  max_abs_error : float;
  details : string list;
}

(** Run the plain-OCaml reference on fresh deterministic inputs;
    returns all arrays (outputs updated in place). *)
val run_reference : Workloads.Kernels.kernel -> float array list

(** Run the mhir interpreter on fresh deterministic inputs. *)
val run_mhir :
  Workloads.Kernels.kernel ->
  directives:Workloads.Kernels.directives ->
  float array list

(** Run an LLVM module (either flow's output) on fresh deterministic
    inputs. *)
val run_llvm :
  Workloads.Kernels.kernel -> Llvmir.Lmodule.t -> float array list

(** Compare every output argument of the second list against the
    first; returns (max relative error, first few mismatch strings). *)
val compare_outputs :
  Workloads.Kernels.kernel ->
  what:string ->
  float array list ->
  float array list ->
  float * string list

(** Full three-way co-simulation of a kernel under given directives. *)
val cosim :
  ?directives:Workloads.Kernels.directives ->
  Workloads.Kernels.kernel ->
  cosim_outcome

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

(** The paper's flow comparison, generalized to a grid: both flows
    under every scheduling discipline, one result per cell
    (disciplines in {!Hls_backend.Backend.all_scheds} order, direct-IR
    before HLS C++ within each). *)
val compare_flows :
  ?directives:Workloads.Kernels.directives ->
  ?clock_ns:float ->
  Workloads.Kernels.kernel ->
  result list

(** HLS-C++ over direct-IR latency, on the statically-scheduled
    cells of a {!compare_flows} grid (the paper's headline number). *)
val latency_ratio : result list -> float
