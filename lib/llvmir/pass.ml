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

    A pass body is either per-function or whole-module; the pipeline
    maps a per-function body over the module, and
    {!run_pipeline_parallel} fans a tail of per-function passes out
    across worker domains when {!Parsafe} proves the module race-free. *)

type body =
  | Per_function of (Analysis.t -> Lmodule.func -> Lmodule.func)
  | Whole_module of (Analysis.t -> Lmodule.t -> Lmodule.t)

type pass = {
  name : string;
  preserves : Analysis.kind list;
      (** analyses still valid (after rebase) on this pass's output *)
  body : body;
}

(* Inlining and CFG simplification restructure blocks, so they
   preserve no structural analysis.  The scalar passes rewrite
   instructions inside a fixed block skeleton: block labels, order and
   terminator targets survive, so CFG-shaped analyses remain valid.
   None of them preserves the function index — any instruction rewrite
   changes its rows.  Every pass preserves the module-level effect
   summary: footprints are transitively-closed over-approximations, and
   a transform can only remove, merge or move accesses (inline included
   — the caller summary already contains the inlined callee's
   effects). *)
let cfg_shape =
  [ Analysis.Cfg; Analysis.Dominance; Analysis.Loop_info; Analysis.Effects ]

let inline =
  { name = "inline"; preserves = [ Analysis.Effects ];
    body = Whole_module (fun _ m -> Opt_inline.run m) }

let mem2reg =
  { name = "mem2reg"; preserves = cfg_shape;
    body = Per_function (fun am f -> Opt_mem2reg.run_func ~am f) }

let dce =
  { name = "dce"; preserves = cfg_shape;
    body = Per_function (fun am f -> Opt_dce.run_func ~am f) }

let constfold =
  { name = "constfold"; preserves = cfg_shape;
    body = Per_function (fun am f -> Opt_constfold.run_func ~am f) }

let cse =
  { name = "cse"; preserves = cfg_shape;
    body = Per_function (fun am f -> Opt_cse.run_func ~am f) }

let simplifycfg =
  { name = "simplifycfg"; preserves = [ Analysis.Effects ];
    body = Per_function (fun am f -> Opt_simplifycfg.run_func ~am f) }

let licm =
  { name = "licm"; preserves = cfg_shape;
    body = Per_function (fun am f -> Opt_licm.run_func ~am f) }

let registry = [ inline; mem2reg; dce; constfold; cse; simplifycfg; licm ]
let by_name name = List.find_opt (fun p -> p.name = name) registry

(** The -O2-flavoured cleanup pipeline both flows run before HLS.
    Inlining comes first: Vitis flattens the design into the top
    function before anything else. *)
let default_pipeline =
  [ inline; mem2reg; constfold; cse; licm; dce; simplifycfg; constfold; dce ]

(* This domain's allocation so far, as (minor words, major words).
   [Gc.counters] counts the calling domain only, where the [Gc] stat
   records add every other domain's sampled counters to it. *)
let alloc_words () =
  let minor, _, major = Gc.counters () in
  (minor, major)

let apply am p m =
  match p.body with
  | Per_function fn -> Lmodule.map_funcs (fn am) m
  | Whole_module fn -> fn am m

(* The passes alone, one trace event each, without verifying the
   result. *)
let run_passes ~trace ~stage ~am (passes : pass list) (m : Lmodule.t) =
  let settle p m' = Analysis.keep am ~preserves:p.preserves m' in
  (* the clock reads, instruction counts and GC deltas exist only for
     the trace event; under the null hook they are pure overhead on the
     hot path, so skip them entirely *)
  let traced = trace != Support.Tracing.null in
  let step m p =
    if not traced then begin
      let m' = apply am p m in
      settle p m';
      m'
    end
    else begin
      let before = Lmodule.instr_count m in
      let minor0, major0 = alloc_words () in
      let t0 = Support.Tracing.now () in
      let m' = apply am p m in
      let seconds = Support.Tracing.now () -. t0 in
      let minor1, major1 = alloc_words () in
      settle p m';
      trace
        (Support.Tracing.with_alloc ~minor_words:(minor1 -. minor0)
           ~major_words:(major1 -. major0)
           (Support.Tracing.event ~stage ~pass:p.name ~seconds ~before
              ~after:(Lmodule.instr_count m')));
      m'
    end
  in
  List.fold_left step m passes

(** Run a pipeline and verify the module once after the final pass
    (also after an empty pipeline) — the verifier's checks are
    properties of the output, so one end-of-pipeline run rejects
    exactly what per-pass runs would, at a fraction of the cost (the
    incremental verifier re-checks only functions that still differ
    from their last accepted value).
    [?trace] receives one {!Support.Tracing.event} per pass (stage
    [?stage], default ["llvm-opt"]) plus one per analysis query (stage
    ["analysis"], pass ["<kind>:hit"] / ["<kind>:compute"]).  [?am]
    is the job's manager, whose analyses of [m] the first pass reuses
    and whose hook receives the analysis events; without it the
    pipeline makes its own, reporting to [?trace].  Returns the
    transformed module and the pipeline's wall time. *)
let run_pipeline ?(trace = Support.Tracing.null) ?(stage = "llvm-opt")
    ?(am = Analysis.create ~trace ()) (passes : pass list) (m : Lmodule.t) :
    Lmodule.t * float =
  let start = Support.Tracing.now () in
  let m' = run_passes ~trace ~stage ~am passes m in
  Lverifier.verify_module ~am m';
  (m', Support.Tracing.now () -. start)

(* ------------------------------------------------------------------ *)
(* Parallel-by-function execution                                     *)
(* ------------------------------------------------------------------ *)

(** How to fan function-local work out.  Supplied by the caller (the
    driver's domain pool) so this library stays below the driver in
    the layering.  [map] must preserve input order and run [f] exactly
    once per element. *)
type fanout = {
  jobs : int;
  map : (Lmodule.func -> Lmodule.func) -> Lmodule.func list -> Lmodule.func list;
}

(** Inline fanout: no parallelism.  Useful as a deterministic
    stand-in where no pool is available. *)
let inline_fanout : fanout = { jobs = 1; map = List.map }

type par_status =
  | Ran_parallel of int  (** function-local tail fanned out over this many functions *)
  | Fell_back of string  (** sequential, and why *)

let par_status_to_string = function
  | Ran_parallel n -> Printf.sprintf "parallel (%d functions)" n
  | Fell_back why -> Printf.sprintf "sequential (%s)" why

(** Longest suffix of the pipeline in which every pass is
    function-local, and the prologue before it. *)
let split_func_local (passes : pass list) : pass list * pass list =
  let rec go tail = function
    | ({ body = Per_function _; _ } as p) :: rest -> go (p :: tail) rest
    | rest -> (List.rev rest, tail)
  in
  go [] (List.rev passes)

(** Like {!run_pipeline}, but when {!Parsafe} proves the module's
    function footprints race-free, the function-local pass tail runs
    per function on [fanout] (module-level prologue passes — inlining —
    stay sequential).  Output is byte-identical to the sequential
    pipeline for any worker count because every tail pass is function-
    local and [fanout.map] preserves order; the CI smoke test and the
    test suite assert exactly that.  On an [Unsafe] verdict (or a
    degenerate module/fanout) the whole pipeline runs sequentially and
    the status says why.  The returned seconds are the wall time of
    the whole call.

    The coordinator's one manager computes the {!Effects} summary
    the verdict reads and serves the sequential prologue (or the
    fallback pipeline), which reuses the function indexes the summary
    built.  Worker domains use fresh private {!Analysis} managers. *)
let run_pipeline_parallel ?(am = Analysis.create ()) ~(fanout : fanout)
    (passes : pass list) (m : Lmodule.t) : Lmodule.t * float * par_status =
  let start = Support.Tracing.now () in
  let fallback reason =
    let m, _ = run_pipeline ~am passes m in
    (m, Support.Tracing.now () -. start, Fell_back reason)
  in
  if fanout.jobs <= 1 then fallback "jobs <= 1"
  else if List.length m.Lmodule.funcs <= 1 then
    fallback "module has at most one function"
  else
    match Parsafe.check ~effects:(Analysis.effects ~am m) m with
    | Parsafe.Unsafe cs ->
        fallback
          (String.concat "; " (List.map Parsafe.conflict_to_string cs))
    | Parsafe.Safe -> (
        match split_func_local passes with
        | _, [] -> fallback "no function-local pass tail"
        | prologue, tail ->
            (* no prologue verify: every function's final value is
               verified once in its worker below, which covers the
               prologue's output too *)
            let m1 =
              run_passes ~trace:Support.Tracing.null ~stage:"llvm-opt" ~am
                prologue m
            in
            (* Workers run the tail on a one-function module under a
               private manager, then verify their function once against
               [m1] (tail passes are function-local, so callee
               signatures never move).  The verification reuses the
               analyses the last pass left in that manager. *)
            let worker (f : Lmodule.func) =
              let am = Analysis.create () in
              let m' =
                run_passes ~trace:Support.Tracing.null ~stage:"llvm-opt" ~am
                  tail { m1 with Lmodule.funcs = [ f ] }
              in
              let f = List.hd m'.Lmodule.funcs in
              Lverifier.verify_func ~am m1 f;
              f
            in
            let funcs = fanout.map worker m1.Lmodule.funcs in
            ( { m1 with Lmodule.funcs = funcs },
              Support.Tracing.now () -. start,
              Ran_parallel (List.length funcs) ))
