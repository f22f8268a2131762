(** Pass manager for LLVM-level transforms: named passes, pipelines,
    verification of the pipeline's output, per-pass trace events, and an
    {!Analysis} manager shared across the pipeline.

    Every pass declares which analyses it {e preserves}; after the
    pass runs, {!Analysis.keep} rebases exactly those onto the new
    function values and drops the rest.  Passes (and the verifier)
    query the shared manager instead of rebuilding analyses, so a
    CFG-preserving stretch of the pipeline computes the CFG, dominator
    tree and loop nest once.  A pass that preserves nothing must
    declare [preserves = []] — over-declaring breaks the rebase
    contract documented on {!Cfg.rebase}.

    A pass body is either per-function or whole-module.
    {!run_pipeline_parallel} fans a tail of per-function passes out
    across worker domains when {!Parsafe} proves the module
    race-free. *)

type body =
  | Per_function of (Analysis.t -> Lmodule.func -> Lmodule.func)
      (** the pipeline maps it over the module's functions *)
  | Whole_module of (Analysis.t -> Lmodule.t -> Lmodule.t)

type pass = {
  name : string;
  preserves : Analysis.kind list;
      (** analyses still valid (after rebase) on this pass's output *)
  body : body;
}

val inline : pass
val mem2reg : pass
val dce : pass
val constfold : pass
val cse : pass
val simplifycfg : pass
val licm : pass

(** The -O2-flavoured cleanup pipeline both flows run before HLS. *)
val default_pipeline : pass list

(** Run a pipeline and verify the module once after the final pass
    (also after an empty pipeline): the verifier's checks are
    properties of the output, so one end-of-pipeline run rejects
    exactly what per-pass verification would, and the incremental
    verifier re-checks only functions that changed since their last
    accepted value.  [?trace] receives one
    {!Support.Tracing.event} per pass (stage [?stage], default
    ["llvm-opt"]; the adaptor passes ["adaptor"]) plus one per analysis
    query (stage ["analysis"], pass ["<kind>:hit"] /
    ["<kind>:compute"]); per-pass times exist only as those events.
    [?am] is the compile job's {!Analysis} manager: the pipeline reuses
    what earlier stages built for [m] and leaves its own results for
    the next stage (analysis events then go to the manager's hook).
    Without it the pipeline makes its own manager.  Returns the
    transformed module and the pipeline's wall time in seconds
    ({!Support.Tracing.now}). *)
val run_pipeline :
  ?trace:Support.Tracing.hook ->
  ?stage:string ->
  ?am:Analysis.t ->
  pass list ->
  Lmodule.t ->
  Lmodule.t * float

(** How to fan function-local work out, supplied by the caller (the
    driver's domain pool — this library stays below the driver in the
    layering).  [map] must preserve input order and apply its callback
    exactly once per element. *)
type fanout = {
  jobs : int;
  map : (Lmodule.func -> Lmodule.func) -> Lmodule.func list -> Lmodule.func list;
}

(** Sequential stand-in fanout ([jobs = 1], [List.map]). *)
val inline_fanout : fanout

type par_status =
  | Ran_parallel of int
      (** function-local tail fanned out over this many functions *)
  | Fell_back of string  (** sequential, and why *)

val par_status_to_string : par_status -> string

(** Longest suffix of the pipeline in which every pass is
    {!Per_function}, and the prologue before it.  Exposed for tests
    and diagnostics. *)
val split_func_local : pass list -> pass list * pass list

(** Like {!run_pipeline}, but when {!Parsafe.check} proves the module
    race-free, the function-local pass tail runs per function on
    [fanout] (the module-level prologue — inlining — stays
    sequential).  Output is byte-identical to {!run_pipeline} for any
    worker count.  Falls back to the full sequential pipeline (with
    the reason in the status) when [fanout.jobs <= 1], the module has
    at most one function, the verdict is [Unsafe], or no pass in the
    pipeline tail is function-local.

    Each worker verifies its function once after the full tail (which
    also covers the sequential prologue's output), so a miscompile is
    caught before the module is reassembled, attributed to the
    pipeline as a whole rather than to one pass.  The seconds are the
    wall time of the whole call, not a sum over worker domains.

    [?am] is the coordinator's manager, as for {!run_pipeline}: the
    effects summary behind the verdict, the prologue and the fallback
    pipeline reuse what the caller built for [m] (a fresh manager
    without it).  Workers use managers of their own. *)
val run_pipeline_parallel :
  ?am:Analysis.t ->
  fanout:fanout ->
  pass list ->
  Lmodule.t ->
  Lmodule.t * float * par_status

(** The pass of that {!pass.name}, among the seven above. *)
val by_name : string -> pass option
