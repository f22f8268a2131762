(** Batch compilation driver: takes a set of jobs (kernel × flow ×
    directive config), executes them on a {!Pool} of OCaml 5 domains,
    and memoizes results in a persistent content-addressed {!Cache}
    keyed by (input IR, pipeline description, directives, tool
    version) — a re-run of a sweep is near-instant.  A job asked for
    its events (or stored in the cache) carries a {!Support.Tracing}
    collector, so the batch yields a full per-pass JSON trace
    ({!Trace}) alongside the QoR table; other jobs run untraced.

    Two entry points:

    - {!run_batch} — one-shot: run a job list, return a report.
    - {!create_session}/{!submit}/{!close_session} — incremental: a
      live worker pool and cache that accept successive job batches.
      An iterative client (the DSE search loop) submits a small batch
      per round; the cache accumulates across rounds, so a config
      revisited in round [n+k] is a hit, and the domains are spawned
      once rather than per round.

    Failures are carried as {!Support.Diag.t} lists (rules HLS000 /
    HLS902 / HLS903), never ad-hoc strings, so every consumer renders
    and filters them uniformly.

    The QoR rendering ({!render_qor}) is deterministic: it depends only
    on job identities and compile results, never on wall time, worker
    count or cache state — a 4-worker run prints byte-identical QoR to
    a sequential one. *)

module K = Workloads.Kernels
module E = Hls_backend.Estimate
module Diag = Support.Diag

(** Cache-key ingredient; bump on any change that alters compiler
    output (or the marshalled payload format — 1.2.0 moved job errors
    from strings to {!Support.Diag.t}; 1.3.0 unified float-literal
    printing on {!Support.Float_lit}, changing printed IR; 1.4.0 made
    {!Llvmir.Memdep} alias-aware and gated partition axes on the alias
    oracle, changing lint output and DSE spaces; 1.5.0 added the
    rendered adaptor report to the cached payload for the serve/CLI
    handlers; 1.6.0 introduced the estimation-backend axis — jobs carry
    a scheduling discipline and the key carries the backend name, so
    the bump is the cache epoch for the backend redesign; 1.7.0 added
    GC allocation fields to {!Support.Tracing.event}, which travels
    inside the marshalled payload — reading a 1.6.0 payload into the
    new layout is undefined behaviour, so the bump is load-bearing;
    1.8.0 stores the events themselves instead of trace records, and
    the adaptor report without per-pass times; 1.9.0 has CSE merge
    one-index [extractvalue]/[insertvalue], which moves the QoR of five
    kernels' direct-IR dynamic reports; 1.10.0 has DCE remove dead phi
    cycles, which moves the FF and LUT of every HLS C++ dynamic
    report). *)
let tool_version = "mhlsc-1.10.0"

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

(* Static jobs keep the historical label shape; dynamic ones are tagged
   so both disciplines coexist in one batch. *)
let sched_tag = function
  | Hls_backend.Backend.Static -> ""
  | Hls_backend.Backend.Dynamic -> "/dyn"

let job ?label ?(flow = Flow.Direct_ir)
    ?(sched = Hls_backend.Backend.Static)
    ?(clock_ns = Hls_backend.Op_model.default_clock_ns) ~kernel directives =
  let label =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "%s/%s%s" kernel (Flow.flow_name flow) (sched_tag sched)
  in
  { label; kernel; flow; sched; directives; clock_ns }

(** Canonical description of a directive configuration — part of the
    cache identity and human-readable in traces. *)
let directives_describe (d : K.directives) : string =
  let int = function None -> "-" | Some n -> string_of_int n in
  Printf.sprintf "ii=%s;unroll=%s;strategy=%s;parts=%s"
    (int d.K.pipeline_ii) (int d.K.unroll)
    (K.strategy_name d.K.strategy)
    (String.concat "+" (List.map K.partition_to_string d.K.partitions))

(* ------------------------------------------------------------------ *)
(* Outcomes                                                           *)
(* ------------------------------------------------------------------ *)

(** What the cache stores per job (must stay marshal-safe: plain data,
    no closures — {!Support.Diag.t} qualifies). *)
type payload = {
  p_qor : (E.report, Diag.t list) result;
  p_trace : Support.Tracing.event list;
  p_seconds : float;  (** front-end compile seconds of the original run *)
  p_adaptor : string option;
      (** rendered adaptor report (direct-IR flow only) *)
}

type outcome = {
  o_job : job;
  o_qor : (E.report, Diag.t list) result;
      (** full synthesis report, or the diagnostics that failed the job *)
  o_seconds : float;
  o_from_cache : bool;
  o_adaptor : string option;  (** rendered adaptor report, if the flow had one *)
  o_trace : Support.Tracing.event list;
      (** the run's events when they were asked for or the job went
          through a cache (a hit replays the stored run's); else [] *)
}

type batch_report = {
  outcomes : outcome list;  (** in job-list order *)
  wall_seconds : float;
  jobs_used : int;  (** worker count *)
  cache_hits : int;
  cache_misses : int;  (** both 0 when caching is disabled *)
}

let trace_records (b : batch_report) : Trace.record list =
  List.concat_map
    (fun o ->
      List.map
        (fun tr_event ->
          {
            Trace.tr_job = o.o_job.label;
            tr_kernel = o.o_job.kernel;
            tr_flow = Flow.flow_name o.o_job.flow;
            tr_cached = o.o_from_cache;
            tr_event;
          })
        o.o_trace)
    b.outcomes

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(** [f ()], with a front-end compile error as HLS000 and a middle-end
    rejection as HLS902 (attributed to [label]). *)
let guard ~(label : string) (f : unit -> 'a) : ('a, Diag.t list) result =
  match f () with
  | v -> Ok v
  | exception Support.Err.Compile_error e ->
      Error [ Diag.of_err ~rule:"HLS000" e ]
  | exception E.Rejected errs ->
      Error
        (Diag.error ~rule:"HLS902" ~func:label
           "rejected by HLS middle-end (%d issues)" (List.length errs)
        :: List.map
             (fun msg -> Diag.error ~rule:"HLS902" ~func:label "%s" msg)
             errs)

(** Compile one job from scratch, capturing per-pass trace events
    only when [events] (counting instructions and reading the clock
    and GC counters around every pass and analysis query is a
    measurable share of a small job).  Never raises: every failure
    mode becomes [Error diags] — HLS000 for front-end compile errors,
    HLS902 for middle-end rejection, HLS903 for an unknown kernel
    name. *)
let compute ~events ~(pipeline : Adaptor.Pipeline.t) (j : job) : payload =
  match K.by_name j.kernel with
  | None ->
      {
        p_qor =
          Error
            [
              Diag.error ~rule:"HLS903" ~func:j.label "unknown kernel '%s'"
                j.kernel;
            ];
        p_trace = [];
        p_seconds = 0.0;
        p_adaptor = None;
      }
  | Some k ->
      let hook, collected =
        if events then Support.Tracing.collector ()
        else (Support.Tracing.null, fun () -> [])
      in
      let qor, seconds, adaptor =
        match
          guard ~label:j.label (fun () ->
              Flow.run ~directives:j.directives ~pipeline ~clock_ns:j.clock_ns
                ~sched:j.sched ~trace:hook k j.flow)
        with
        | Ok (Ok r) ->
            ( Ok r.Flow.hls,
              r.Flow.seconds,
              Option.map Adaptor.report_to_string r.Flow.adaptor_report )
        | Ok (Error ds) | Error ds -> (Error ds, 0.0, None)
      in
      { p_qor = qor; p_trace = collected (); p_seconds = seconds; p_adaptor = adaptor }

(** The job's content address: hashes the {e printed input IR} (the
    kernel built under its directives), so any change to the kernel
    builder lands on a fresh entry, plus every knob that affects the
    result downstream of that IR. *)
let cache_key ~(pipeline : Adaptor.Pipeline.t) (j : job) : string option =
  match K.by_name j.kernel with
  | None -> None
  | Some k ->
      let input_ir =
        Mhir.Printer.module_to_string (k.K.build j.directives)
      in
      Some
        (Cache.key
           [
             tool_version;
             input_ir;
             Adaptor.Pipeline.describe pipeline;
             directives_describe j.directives;
             Flow.flow_name j.flow;
             (* the discipline's wire name, not its constructor, so
                keys survive variant renames *)
             Hls_backend.Backend.sched_name j.sched;
             Printf.sprintf "%.3f" j.clock_ns;
           ])

(* A stored payload is its marshalled bytes behind their digest.  Bytes
   that fail the digest are a miss and never reach [Marshal], which on
   damaged input can crash the process or decode a wrong report. *)
let payload_to_string (p : payload) : string =
  let m = Marshal.to_string p [] in
  Digest.string m ^ m

let payload_of_string (s : string) : payload option =
  let n = String.length s - 16 in
  if n < 0 || not (Digest.equal (Digest.substring s 16 n) (String.sub s 0 16))
  then None
  else
    match (Marshal.from_string s 16 : payload) with
    | p -> Some p
    | exception _ -> None

(** Run one job, consulting [cache] first.  Events are collected when
    [events] asks for them or the outcome is stored in [cache], whose
    hits replay them. *)
let run_job ?(events = false) ~pipeline ~(cache : Cache.t option) (j : job) :
    outcome =
  let outcome ~from_cache p =
    {
      o_job = j;
      o_qor = p.p_qor;
      o_seconds = p.p_seconds;
      o_from_cache = from_cache;
      o_adaptor = p.p_adaptor;
      o_trace = p.p_trace;
    }
  in
  let fresh () = outcome ~from_cache:false (compute ~events ~pipeline j) in
  match cache with
  | None -> fresh ()
  | Some cache -> (
      match cache_key ~pipeline j with
      | None -> fresh ()
      | Some key -> (
          match Cache.find_decoded cache key payload_of_string with
          | Some p -> outcome ~from_cache:true p
          | None ->
              let p = compute ~events:true ~pipeline j in
              Cache.store cache key (payload_to_string p);
              outcome ~from_cache:false p))

(* ------------------------------------------------------------------ *)
(* Sessions: a live pool + cache accepting incremental submissions    *)
(* ------------------------------------------------------------------ *)

type session = {
  s_pipeline : Adaptor.Pipeline.t;
  s_cache : Cache.t option;
  s_pool : Pool.t;
  mutable s_closed : bool;
}

(** [create_session ()] spins up the worker pool (and opens the cache
    directory, if any) once; every subsequent {!submit} reuses both.
    Close with {!close_session} — or lexically via {!with_session}.
    [~oversubscribe:true] passes through to {!Pool.create}: the serve
    daemon wants [jobs] worker domains even on fewer cores, so a
    short request can overtake a long one. *)
let create_session ?(pipeline = Adaptor.Pipeline.default) ?cache_dir
    ?(jobs = 1) ?(oversubscribe = false) () : session =
  {
    s_pipeline = pipeline;
    s_cache = Option.map (fun dir -> Cache.create ~dir) cache_dir;
    s_pool = Pool.create ~oversubscribe ~jobs ();
    s_closed = false;
  }

(** Submit one more batch into the live session.  Outcomes come back in
    job-list order, deterministic for any worker count.  Cache hits
    accumulate across submissions: a job resubmitted in a later round
    (same content address) is served from cache.

    Submitting into a closed session is an HLS904 diagnostic, matching
    the unified result-based error convention at the API boundary —
    the serve dispatcher renders it like any other job failure.

    [?pipeline] overrides the session's adaptor pipeline for this
    batch only (the serve daemon submits per-request pipelines into
    one long-lived session); cache keys include the pipeline, so the
    shared cache stays sound.  [?events] as for {!run_job}. *)
let submit ?events ?pipeline (s : session) (js : job list) :
    (outcome list, Diag.t list) result =
  if s.s_closed then
    Error
      [
        Diag.error ~rule:"HLS904"
          "session is closed; no further submissions accepted"
          ~hint:"create a fresh session with Driver.create_session";
      ]
  else begin
    let pipeline = Option.value pipeline ~default:s.s_pipeline in
    Ok (Pool.run s.s_pool (run_job ?events ~pipeline ~cache:s.s_cache) js)
  end

(** [background s task] hands [task] to one of the session's worker
    domains without blocking ({!Pool.submit}); [false] on a closed
    session or an inline pool, in which case the caller should run the
    thunk itself.  This is the serve reactor's executor: request
    groups evaluate here while the select loop keeps reading.  A
    submitted task may itself call {!submit} with a {e single-job}
    batch (it runs inline on the worker), which is exactly what the
    compile handler does. *)
let background (s : session) (task : unit -> unit) : bool =
  (not s.s_closed) && Pool.submit s.s_pool task

(** {!submit} for callers that own a visibly open session (e.g. inside
    {!with_session}); raises {!Support.Diag.Failed} on a closed one. *)
let submit_exn ?events (s : session) (js : job list) : outcome list =
  match submit ?events s js with
  | Ok outs -> outs
  | Error ds -> raise (Diag.Failed ds)

let session_workers (s : session) = Pool.size s.s_pool

let session_hits (s : session) =
  match s.s_cache with Some c -> Cache.hits c | None -> 0

let session_misses (s : session) =
  match s.s_cache with Some c -> Cache.misses c | None -> 0

(** Shut the pool down and mark the session closed.  Idempotent. *)
let close_session (s : session) : unit =
  if not s.s_closed then begin
    s.s_closed <- true;
    Pool.shutdown s.s_pool
  end

(** [with_session ?pipeline ?cache_dir ?jobs f] runs [f] over a fresh
    session and closes it even if [f] raises. *)
let with_session ?pipeline ?cache_dir ?jobs (f : session -> 'a) : 'a =
  let s = create_session ?pipeline ?cache_dir ?jobs () in
  Fun.protect ~finally:(fun () -> close_session s) (fun () -> f s)

(** Run a batch: up to [jobs] domains, optional result cache.  Job
    order is preserved in [outcomes] regardless of worker count.

    [jobs] is an upper bound: the pool never oversubscribes the
    hardware (OCaml 5 minor collections are stop-the-world across
    domains, so excess domains make an allocation-heavy workload
    {e slower}).  Results are deterministic for any worker count.
    One-shot wrapper over a {!session}. *)
let run_batch ?events ?pipeline ?cache_dir ?(jobs = 1) (js : job list) :
    batch_report =
  let jobs = max 1 (min jobs (max 1 (List.length js))) in
  with_session ?pipeline ?cache_dir ~jobs (fun s ->
      let t0 = Support.Tracing.now () in
      let outcomes = submit_exn ?events s js in
      {
        outcomes;
        wall_seconds = Support.Tracing.now () -. t0;
        jobs_used = session_workers s;
        cache_hits = session_hits s;
        cache_misses = session_misses s;
      })

(* ------------------------------------------------------------------ *)
(* Built-in job grids and manifests                                   *)
(* ------------------------------------------------------------------ *)

(** The default directive grid swept by [mhlsc batch --all-kernels]. *)
let default_grid : (string * K.directives) list =
  [
    ("baseline", K.no_directives);
    ("pipeline-inner", K.pipelined);
    ("inner-unroll4", { K.pipelined with K.unroll = Some 4 });
    ("middle-full-unroll", K.optimized ~factor:1 ~parts:[] ());
  ]

(** Every built-in kernel × {!default_grid} × [flows] × [scheds].
    Static jobs keep the historical labels; dynamic jobs append
    ["/dyn"]. *)
let all_kernel_jobs ?(flows = [ Flow.Direct_ir ])
    ?(scheds = [ Hls_backend.Backend.Static ])
    ?(clock_ns = Hls_backend.Op_model.default_clock_ns) () : job list =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun flow ->
          List.concat_map
            (fun sched ->
              List.map
                (fun (cfg, d) ->
                  job
                    ~label:
                      (Printf.sprintf "%s/%s/%s%s" k.K.kname cfg
                         (Flow.flow_name flow) (sched_tag sched))
                    ~flow ~sched ~clock_ns ~kernel:k.K.kname d)
                default_grid)
            scheds)
        flows)
    (K.all ())

(* The manifest's keys: each value is parsed by its knob's owner and
   set on the line's job, or rejected with a message naming it. *)
let manifest_keys : (string * (string -> job -> (job, string) result)) list =
  let key name want of_string set =
    ( name,
      fun v j ->
        match of_string v with
        | Some x -> Ok (set x j)
        | None -> Error (Printf.sprintf "bad %s '%s' (want %s)" name v want) )
  in
  let one_of name all = "one of " ^ String.concat ", " (List.map name all) in
  let directives f j = { j with directives = f j.directives } in
  let module B = Hls_backend.Backend in
  [
    ("label", fun label j -> Ok { j with label });
    key "flow" (one_of fst Flow.flow_names) Flow.flow_of_name (fun flow j ->
        { j with flow });
    key "sched" (one_of B.sched_name B.all_scheds) B.sched_of_name
      (fun sched j -> { j with sched });
    key "ii" "an integer" int_of_string_opt (fun n ->
        directives (fun d ->
            { d with K.pipeline_ii = (if n <= 0 then None else Some n) }));
    key "unroll" "an integer" int_of_string_opt (fun n ->
        directives (fun d -> { d with K.unroll = Some n }));
    key "strategy"
      (one_of K.strategy_name K.all_strategies)
      K.strategy_of_name
      (fun strategy -> directives (fun d -> { d with K.strategy }));
    key "clock" "a float" float_of_string_opt (fun clock_ns j ->
        { j with clock_ns });
    key "partition" "ARRAY:KIND:FACTOR:DIM" K.partition_of_string (fun p ->
        directives (fun d -> { d with K.partitions = d.K.partitions @ [ p ] }));
  ]

(** Parse a job manifest.  One job per line, [#] comments:
    {v
    <kernel> [key=value]...
    v}
    with the keys of {!manifest_keys}.  A line starts unpipelined,
    from {!K.no_directives}.  Unknown kernels or keys, malformed values
    and partitions the kernel cannot honour are HLS901 diagnostics at
    [manifest:N], never exceptions. *)
let parse_manifest (text : string) : (job list, Support.Diag.t) result =
  let ( let* ) = Result.bind in
  let parse_line lineno line =
    let err fmt =
      Diag.error ~rule:"HLS901" ~func:(Printf.sprintf "manifest:%d" lineno) fmt
    in
    let apply j opt =
      let* j = j in
      match String.index_opt opt '=' with
      | None -> Error (err "malformed option '%s' (expected key=value)" opt)
      | Some i -> (
          let key = String.sub opt 0 i in
          let v = String.sub opt (i + 1) (String.length opt - i - 1) in
          match List.assoc_opt key manifest_keys with
          | None -> Error (err "unknown manifest option '%s'" key)
          | Some set -> Result.map_error (err "%s") (set v j))
    in
    let line = List.hd (String.split_on_char '#' line) in
    match
      String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")
    with
    | [] -> Ok None
    | kernel :: opts -> (
        match K.by_name kernel with
        | None -> Error (err "unknown kernel '%s' in manifest" kernel)
        | Some k ->
            let label = Printf.sprintf "%s:%d" kernel lineno in
            let j = job ~label ~kernel K.no_directives in
            let* j = List.fold_left apply (Ok j) opts in
            let* () =
              Result.map_error (err "%s")
                (K.check_partitions k j.directives.K.partitions)
            in
            Ok (Some j))
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
        let* j = parse_line lineno l in
        go (lineno + 1) (Option.to_list j @ acc) rest
  in
  go 1 [] (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic QoR table: depends only on job identities and compile
    results — never on wall time, worker count or cache state. *)
let render_qor (b : batch_report) : string =
  let t =
    Support.Table.create
      ~aligns:
        [ Support.Table.Left; Support.Table.Left; Support.Table.Left;
          Support.Table.Left; Support.Table.Right; Support.Table.Right;
          Support.Table.Right; Support.Table.Right; Support.Table.Right ]
      [ "job"; "kernel"; "flow"; "status"; "latency"; "II"; "BRAM"; "DSP";
        "LUT" ]
  in
  let failures = ref [] in
  List.iter
    (fun o ->
      match o.o_qor with
      | Ok r ->
          Support.Table.add_row t
            [
              o.o_job.label;
              o.o_job.kernel;
              Flow.flow_name o.o_job.flow;
              "ok";
              string_of_int r.E.latency;
              string_of_int (E.inner_ii r);
              string_of_int r.E.resources.E.bram;
              string_of_int r.E.resources.E.dsp;
              string_of_int r.E.resources.E.lut;
            ]
      | Error diags ->
          failures := (o.o_job.label, diags) :: !failures;
          Support.Table.add_row t
            [
              o.o_job.label; o.o_job.kernel; Flow.flow_name o.o_job.flow;
              "FAIL"; "-"; "-"; "-"; "-"; "-";
            ])
    b.outcomes;
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Support.Table.render t);
  List.iter
    (fun (label, diags) ->
      Buffer.add_string buf (Printf.sprintf "\n%s failed:\n" label);
      List.iter
        (fun d ->
          Buffer.add_string buf (Printf.sprintf "  %s\n" (Diag.to_string d)))
        diags)
    (List.rev !failures);
  Buffer.contents buf

(** Run statistics — the non-deterministic tail of the report.  The
    cache-hit rate line is stable ("cache-hit rate: 100%") so scripts
    and CI can assert on it. *)
let render_stats (b : batch_report) : string =
  let n = List.length b.outcomes in
  let cache_line =
    if b.cache_hits + b.cache_misses = 0 then "cache: disabled"
    else
      Printf.sprintf "cache: %d hits, %d misses; cache-hit rate: %d%%"
        b.cache_hits b.cache_misses
        (if n = 0 then 0 else 100 * b.cache_hits / (b.cache_hits + b.cache_misses))
  in
  Printf.sprintf "%d jobs in %.2fs wall (%d workers); %s\n" n b.wall_seconds
    b.jobs_used cache_line

let render (b : batch_report) : string = render_qor b ^ "\n" ^ render_stats b
