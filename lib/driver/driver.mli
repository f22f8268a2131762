(** Batch compilation driver: (kernel × flow × directive) jobs on a
    domain {!Pool}, memoized in a content-addressed {!Cache}, traced
    via {!Trace}.

    Two entry points: the one-shot {!run_batch}, and the incremental
    {!create_session}/{!submit}/{!close_session} trio, which keeps a
    live worker pool and cache across successive batches (the DSE
    search submits one batch per round; revisited configs hit the
    cache, and domains are spawned once).

    Failures are {!Support.Diag.t} lists (HLS000 compile error, HLS902
    middle-end rejection, HLS903 unknown kernel), never ad-hoc
    strings.  QoR rendering is deterministic: independent of wall
    time, worker count and cache state. *)

module K := Workloads.Kernels
module E := Hls_backend.Estimate

(** Cache-key ingredient; bumped on any change that alters compiler
    output or the cached payload format. *)
val tool_version : string

(* ------------------------------------------------------------------ *)
(* Jobs                                                               *)
(* ------------------------------------------------------------------ *)

type job = {
  label : string;  (** unique within a batch; names trace records *)
  kernel : string;  (** built-in kernel name *)
  flow : Flow.flow_kind;
  sched : Hls_backend.Backend.sched;  (** estimation backend *)
  directives : K.directives;
  clock_ns : float;
}

(** Smart constructor; the default label is ["<kernel>/<flow>"]
    (suffixed with ["/dyn"] for the dynamic backend) and the default
    discipline is {!Hls_backend.Backend.Static}.  The cache key
    includes the backend name, so static and dynamic jobs over the
    same kernel/config address distinct entries. *)
val job :
  ?label:string ->
  ?flow:Flow.flow_kind ->
  ?sched:Hls_backend.Backend.sched ->
  ?clock_ns:float ->
  kernel:string ->
  K.directives ->
  job

(** Canonical description of a directive configuration — part of the
    cache identity and human-readable in traces. *)
val directives_describe : K.directives -> string

(* ------------------------------------------------------------------ *)
(* Outcomes                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_job : job;
  o_qor : (E.report, Support.Diag.t list) result;
      (** full synthesis report, or the diagnostics that failed the job *)
  o_seconds : float;
  o_from_cache : bool;
  o_adaptor : string option;  (** rendered adaptor report, if the flow had one *)
  o_trace : Support.Tracing.event list;
      (** the run's pass events, or [[]]: only a run that asked for
          events ([?events]) or went through a cache collects them (a
          hit replays the stored run's) *)
}

type batch_report = {
  outcomes : outcome list;  (** in job-list order *)
  wall_seconds : float;
  jobs_used : int;  (** worker count *)
  cache_hits : int;
  cache_misses : int;  (** both 0 when caching is disabled *)
}

(** Every outcome's events as trace-file records: each event plus its
    job's identity and the outcome's [o_from_cache]. *)
val trace_records : batch_report -> Trace.record list

(** The job's content address, [None] for an unknown kernel: hashes
    the printed input IR plus every knob that affects the result. *)
val cache_key : pipeline:Adaptor.Pipeline.t -> job -> string option

(** [guard ~label f] runs [f], turning a front-end compile error into
    an HLS000 diagnostic and a middle-end rejection into HLS902 ones
    attributed to [label]; any other exception escapes. *)
val guard : label:string -> (unit -> 'a) -> ('a, Support.Diag.t list) result

(** Run one job, consulting [cache] first.  Never raises: every
    failure mode becomes [Error diags].  Pass events are collected
    when [events] (default [false]) asks for them or the outcome is
    stored in [cache]; otherwise the job runs untraced and [o_trace]
    is empty.  The QoR does not depend on [events]. *)
val run_job :
  ?events:bool ->
  pipeline:Adaptor.Pipeline.t ->
  cache:Cache.t option ->
  job ->
  outcome

(* ------------------------------------------------------------------ *)
(* Sessions: a live pool + cache accepting incremental submissions    *)
(* ------------------------------------------------------------------ *)

type session

(** Spin up the worker pool (and open the cache directory, if any)
    once; every subsequent {!submit} reuses both.
    [~oversubscribe:true] lifts the pool's hardware clamp (see
    {!Pool.create}) — the serve daemon's concurrency-for-latency
    trade. *)
val create_session :
  ?pipeline:Adaptor.Pipeline.t ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?oversubscribe:bool ->
  unit ->
  session

(** Submit one more batch into the live session.  Outcomes in job-list
    order, deterministic for any worker count; cache hits accumulate
    across submissions.  [?pipeline] overrides the session pipeline
    for this batch only (cache keys include it, so the shared cache
    stays sound).  Submitting after {!close_session} is an [Error]
    carrying an HLS904 diagnostic — never an exception.  [?events] as
    for {!run_job}. *)
val submit :
  ?events:bool ->
  ?pipeline:Adaptor.Pipeline.t ->
  session ->
  job list ->
  (outcome list, Support.Diag.t list) result

(** {!submit} for callers that own a visibly open session; raises
    {!Support.Diag.Failed} where {!submit} returns [Error]. *)
val submit_exn :
  ?events:bool ->
  session ->
  job list ->
  outcome list

(** [background s task] hands [task] to a session worker domain
    without blocking; [false] (nothing enqueued) on a closed session
    or an inline pool — run the thunk yourself.  The serve reactor's
    executor: a submitted task may call {!submit} with a single-job
    batch (it runs inline on the worker), but must not submit
    multi-job batches into this same session. *)
val background : session -> (unit -> unit) -> bool

val session_workers : session -> int
val session_hits : session -> int
val session_misses : session -> int

(** Shut the pool down and mark the session closed.  Idempotent. *)
val close_session : session -> unit

(** Run [f] over a fresh session; closes it even if [f] raises. *)
val with_session :
  ?pipeline:Adaptor.Pipeline.t ->
  ?cache_dir:string ->
  ?jobs:int ->
  (session -> 'a) ->
  'a

(** One-shot wrapper over a session: run a batch on up to [jobs]
    domains with an optional result cache.  [?events] as for
    {!run_job}; {!trace_records} is empty without it unless the batch
    used a cache. *)
val run_batch :
  ?events:bool ->
  ?pipeline:Adaptor.Pipeline.t ->
  ?cache_dir:string ->
  ?jobs:int ->
  job list ->
  batch_report

(* ------------------------------------------------------------------ *)
(* Built-in job grids and manifests                                   *)
(* ------------------------------------------------------------------ *)

(** The default directive grid swept by [mhlsc batch --all-kernels]. *)
val default_grid : (string * K.directives) list

(** Every built-in kernel × {!default_grid} × [flows] × [scheds]
    (default static only).  Static jobs keep the historical labels;
    dynamic jobs append ["/dyn"]. *)
val all_kernel_jobs :
  ?flows:Flow.flow_kind list ->
  ?scheds:Hls_backend.Backend.sched list ->
  ?clock_ns:float ->
  unit ->
  job list

(** Parse a job manifest (one job per line; [#] comments).  Each key's
    value is parsed by its knob's owner ({!Flow.flow_of_name},
    {!Hls_backend.Backend.sched_of_name}, {!K.strategy_of_name},
    {!K.partition_of_string}).  A line starts from {!K.no_directives},
    unpipelined.  Unknown kernels or keys, malformed values and
    partitions the kernel cannot honour ({!K.check_partitions}) are
    HLS901 diagnostics at [manifest:N]. *)
val parse_manifest : string -> (job list, Support.Diag.t) result

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic QoR table. *)
val render_qor : batch_report -> string

(** Run statistics (wall time, worker count, cache-hit rate — the
    stable "cache-hit rate: N%" line CI asserts on). *)
val render_stats : batch_report -> string

val render : batch_report -> string
