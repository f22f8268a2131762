(** The command registry: every [mhlsc] subcommand as a pure handler
    [request -> (response, Diag.t list) result] over the serve
    {!Mhls_serve.Protocol} types.

    The argv front-end ([bin/mhlsc.ml]) and the daemon dispatcher
    ({!dispatch}) call the {e same} functions, so the CLI and the
    service cannot drift: a handler never prints, never exits, and
    reports every failure as a {!Support.Diag.t} list.  Rendering the
    responses back into the CLI's historical output formats lives in
    {!Render}; exception-to-exit-code conversion stays in the
    executable.

    Jobs that compile kernels ({!compile}) run on the {!env}'s
    long-lived driver session, so the domain pool and the
    content-addressed result cache stay warm across requests — the
    whole point of [mhlsc serve]. *)

module K = Workloads.Kernels
module E = Hls_backend.Estimate
module D = Mhls_driver.Driver
module P = Mhls_serve.Protocol
module Diag = Support.Diag

let ( let* ) = Result.bind

(** [f ()], with a compile error (a parse or verifier failure) as its
    HLS000 diagnostic. *)
let hls000 f =
  match f () with
  | v -> Ok v
  | exception Support.Err.Compile_error e ->
      Error [ Diag.of_err ~rule:"HLS000" e ]

(* ------------------------------------------------------------------ *)
(* Environment                                                        *)
(* ------------------------------------------------------------------ *)

(** Long-lived handler state: the driver session (domain pool + result
    cache).  The CLI builds a throwaway one per invocation; the daemon
    keeps one for its whole lifetime. *)
type env = {
  session : D.session;
  cache_dir : string option;  (** shared with DSE's internal sessions *)
  jobs : int;
}

let create_env ?cache_dir ?(jobs = 1) ?(oversubscribe = false) () : env =
  {
    session = D.create_session ?cache_dir ~jobs ~oversubscribe ();
    cache_dir;
    jobs;
  }

let close_env (env : env) : unit = D.close_session env.session

(** The serve reactor's executor: hand one group evaluation to a
    session worker domain.  [false] (run it inline) on a closed
    session or an inline pool. *)
let background (env : env) (task : unit -> unit) : bool =
  D.background env.session task

(** Driver result-cache (hits, misses) — the [stats] request reports
    these next to the server's own counters. *)
let counters (env : env) : int * int =
  (D.session_hits env.session, D.session_misses env.session)

(* ------------------------------------------------------------------ *)
(* Shared resolution helpers                                          *)
(* ------------------------------------------------------------------ *)

let find_kernel (name : string) : (K.kernel, Diag.t list) result =
  match K.by_name name with
  | Some k -> Ok k
  | None ->
      Error
        [
          Diag.error ~rule:"HLS903" "unknown kernel '%s'" name
            ~hint:"try `mhlsc list`";
        ]

(* The name tables a request's knobs resolve through, each built from
   its owner; [Flow.flow_names] is one too. *)
let named name all = List.map (fun v -> (name v, v)) all

let sched_names =
  named Hls_backend.Backend.sched_name Hls_backend.Backend.all_scheds

let strategy_names = named K.strategy_name K.all_strategies

(** The DSE request's backend axis: one discipline, or [both]. *)
let dse_sched_names =
  List.map (fun (n, s) -> (n, [ s ])) sched_names
  @ [ ("both", Hls_backend.Backend.all_scheds) ]

(** A knob's name looked up in its table; an unknown name is an HLS905
    diagnostic listing the accepted ones. *)
let resolve what (names : (string * 'a) list) (s : string) :
    ('a, Diag.t list) result =
  match List.assoc_opt s names with
  | Some v -> Ok v
  | None ->
      Error
        [
          P.protocol_error "unknown %s '%s' (want %s)" what s
            (String.concat ", " (List.map fst names));
        ]

(** Protocol directives to [k]'s directives; [ii <= 0] disables
    pipelining, mirroring the CLI's [--pipeline 0], and every partition
    must be one [k] can honour ({!K.check_partitions}). *)
let directives_of_protocol (k : K.kernel) (d : P.directives) :
    (K.directives, Diag.t list) result =
  let* strategy = resolve "strategy" strategy_names d.P.d_strategy in
  let* () =
    Result.map_error
      (fun e -> [ P.protocol_error "%s" e ])
      (K.check_partitions k d.P.d_partitions)
  in
  Ok
    {
      K.pipeline_ii =
        (match d.P.d_ii with Some ii when ii <= 0 -> None | ii -> ii);
      K.unroll = d.P.d_unroll;
      K.strategy;
      K.partitions = d.P.d_partitions;
    }

(** Resolve pass-pipeline knobs; unknown pass names are HLS900
    diagnostics (from the pipeline registry), never exceptions. *)
let pipeline_of ?top ?(strict = true) ~(passes : string list option)
    ~(disable : string list) () : (Adaptor.Pipeline.t, Diag.t list) result =
  let wrap = Result.map_error (fun d -> [ d ]) in
  let* base =
    match passes with
    | None -> Ok { Adaptor.Pipeline.default with Adaptor.Pipeline.top; strict }
    | Some names -> wrap (Adaptor.Pipeline.of_names ?top ~strict names)
  in
  List.fold_left
    (fun acc name ->
      let* p = acc in
      wrap (Adaptor.Pipeline.disable name p))
    (Ok base) disable

(* ------------------------------------------------------------------ *)
(* Service handlers (shared by argv and daemon)                       *)
(* ------------------------------------------------------------------ *)

(** Compile one kernel through the env's driver session — warm pool,
    warm cache, per-request pipeline override.  Under a live [trace]
    hook (a streaming request) the job collects its pass events, and
    they (the original run's, on a cache hit) are replayed into
    [trace], so streaming clients see the passes either way; under
    {!Support.Tracing.null} the job runs untraced. *)
let compile (env : env) ~(trace : Support.Tracing.hook)
    (c : P.compile_req) : (P.compile_resp, Diag.t list) result =
  let* k = find_kernel c.P.c_kernel in
  let* flow = resolve "flow" Flow.flow_names c.P.c_flow in
  let* sched = resolve "sched" sched_names c.P.c_sched in
  let* d = directives_of_protocol k c.P.c_directives in
  let* pipeline =
    pipeline_of ~top:k.K.kname ~passes:c.P.c_passes ~disable:c.P.c_disable ()
  in
  let job =
    D.job ~flow ~sched ~clock_ns:c.P.c_clock_ns ~kernel:k.K.kname d
  in
  let events = trace != Support.Tracing.null in
  let* outs = D.submit ~events ~pipeline env.session [ job ] in
  match outs with
  | [ o ] -> (
      List.iter trace o.D.o_trace;
      match o.D.o_qor with
      | Error ds -> Error ds
      | Ok r ->
          Ok
            {
              P.cr_kernel = k.K.kname;
              cr_flow = Flow.flow_name flow;
              cr_latency = r.E.latency;
              cr_ii = E.inner_ii r;
              cr_bram = r.E.resources.E.bram;
              cr_dsp = r.E.resources.E.dsp;
              cr_lut = r.E.resources.E.lut;
              cr_seconds = o.D.o_seconds;
              cr_from_cache = o.D.o_from_cache;
              cr_adaptor = o.D.o_adaptor;
              cr_report = Hls_backend.Report.render r;
            })
  | outs ->
      Error
        [
          Diag.error ~rule:"HLS000" "driver returned %d outcomes for one job"
            (List.length outs);
        ]

(** Lint a built-in kernel (on the adaptor's HLS-ready output) or raw
    IR source (as written).  Findings are the {e successful} payload —
    only setup problems (no target, unknown kernel, bad pipeline) are
    handler errors; an unparseable source becomes an HLS000 finding,
    matching the CLI's historical behavior. *)
let lint (l : P.lint_req) : (P.lint_resp, Diag.t list) result =
  let only = l.P.l_rules in
  let werror = l.P.l_werror in
  match (l.P.l_kernel, l.P.l_source) with
  | Some _, Some _ ->
      Error [ P.protocol_error "lint takes a kernel or source text, not both" ]
  | None, None ->
      Error [ P.protocol_error "lint needs a kernel or source text" ]
  | None, Some src -> (
      match Llvmir.Lparser.parse_module src with
      | m ->
          Ok { P.lr_diags = Hls_backend.Lint.run ?only ~werror ?top:l.P.l_top m }
      | exception Support.Err.Compile_error e ->
          Ok { P.lr_diags = [ Diag.of_err ~rule:"HLS000" e ] })
  | Some name, None ->
      let* k = find_kernel name in
      let* d = directives_of_protocol k l.P.l_directives in
      let* pipeline =
        pipeline_of ~top:k.K.kname ~passes:l.P.l_passes ~disable:l.P.l_disable
          ()
      in
      Ok { P.lr_diags = Flow.lint_kernel ~directives:d ~pipeline ?only ~werror k }

(** Run the LLVM cleanup pipeline (or just the parallel-safety
    checker) on source text or a generated [--synth N] module.  The
    source is verified under the manager the pipeline (sequential or
    parallel) then reuses, so no function is indexed or verified
    twice. *)
let opt (o : P.opt_req) : (P.opt_resp, Diag.t list) result =
  let module LP = Llvmir.Pass in
  let am = Llvmir.Analysis.create () in
  let* m =
    match (o.P.op_source, o.P.op_synth) with
    | Some _, Some _ ->
        Error [ P.protocol_error "opt takes source or synth, not both" ]
    | None, None ->
        Error [ P.protocol_error "opt needs source text or a synth size" ]
    | Some src, None ->
        hls000 (fun () ->
            let m = Llvmir.Lparser.parse_module src in
            Llvmir.Lverifier.verify_module ~am m;
            m)
    | None, Some n -> Ok (Mhls_driver.Synth.many_kernels ~n)
  in
  if o.P.op_parsafe then
    let v = Llvmir.Parsafe.check ~effects:(Llvmir.Analysis.effects ~am m) m in
    let safe =
      match v with Llvmir.Parsafe.Safe -> true | Llvmir.Parsafe.Unsafe _ -> false
    in
    Ok
      {
        P.or_ir = "";
        or_passes = 0;
        or_seconds = 0.0;
        or_par_status = None;
        or_verdict =
          Some
            (if o.P.op_json then Llvmir.Parsafe.to_json v
             else Llvmir.Parsafe.verdict_to_string v);
        or_safe = safe;
      }
  else
    let* passes =
      match o.P.op_passes with
      | None -> Ok LP.default_pipeline
      | Some names ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | name :: rest -> (
                match LP.by_name name with
                | Some p -> go (p :: acc) rest
                | None ->
                    Error [ P.protocol_error "unknown LLVM pass %S" name ])
          in
          go [] names
    in
    let m', seconds, par_status =
      if o.P.op_parallel then
        let fanout = Mhls_driver.Pool.fanout ~jobs:o.P.op_jobs in
        let m', seconds, status = LP.run_pipeline_parallel ~am ~fanout passes m in
        (m', seconds, Some (LP.par_status_to_string status))
      else
        let m', seconds = LP.run_pipeline ~am passes m in
        (m', seconds, None)
    in
    Ok
      {
        P.or_ir = Llvmir.Lprinter.module_to_string m';
        or_passes = List.length passes;
        or_seconds = seconds;
        or_par_status = par_status;
        or_verdict = None;
        or_safe = true;
      }

(** Design-space exploration.  The search runs its own driver session
    but shares the on-disk result cache, so daemon-warmed entries keep
    paying off. *)
let dse ?cache_dir ~(jobs : int) ~(trace : Support.Tracing.hook)
    (d : P.dse_req) : (P.dse_resp, Diag.t list) result =
  let module S = Mhls_dse.Search in
  let* k = find_kernel d.P.ds_kernel in
  let* scheds = resolve "sched" dse_sched_names d.P.ds_sched in
  let dp = S.default_params in
  let params =
    {
      S.max_evals = Option.value d.P.ds_max_evals ~default:dp.S.max_evals;
      S.max_rounds = Option.value d.P.ds_rounds ~default:dp.S.max_rounds;
      S.stable_rounds = Option.value d.P.ds_stable ~default:dp.S.stable_rounds;
      S.budget =
        {
          S.b_max_bram = d.P.ds_budget_bram;
          S.b_max_dsp = d.P.ds_budget_dsp;
          S.b_max_lut = d.P.ds_budget_lut;
        };
      S.clock_ns = d.P.ds_clock_ns;
    }
  in
  let o = S.search ~params ~scheds ?cache_dir ~jobs ~trace k in
  Ok
    {
      P.dr_report = S.render o;
      dr_best =
        Option.map
          (fun (b : S.point) -> (b.S.pt_label, b.S.pt_report.E.latency))
          (S.best o);
      dr_json = Mhls_dse.Dse_json.to_json ~tool:D.tool_version o;
    }

(** Differential fuzzing.  [repro_dir] is a CLI-only extra (the daemon
    does not write repro files into its own working directory). *)
let fuzz ?repro_dir ~(trace : Support.Tracing.hook) (f : P.fuzz_req) :
    (P.fuzz_resp, Diag.t list) result =
  let module F = Mhls_difftest.Difftest in
  let stage_names = named F.stage_name F.all_stages in
  let* stages =
    List.fold_right
      (fun s acc ->
        let* st = resolve "stage" stage_names s in
        Result.map (List.cons st) acc)
      f.P.f_stages (Ok [])
  in
  let r =
    F.run_batch ~trace ~stages ~shrink:f.P.f_shrink ?repro_dir
      ~jobs:f.P.f_jobs ~seed:f.P.f_seed ~count:f.P.f_count ()
  in
  Ok { P.fr_report = F.render r; fr_failures = List.length r.F.r_failures }

let list_kernels () : P.kernel_info list =
  List.map
    (fun k -> { P.k_name = k.K.kname; k_description = k.K.description })
    (K.all ())

(** The daemon dispatcher: one entry per service request kind, closing
    over the shared {!env}.  [Stats]/[Ping]/[Shutdown] never reach a
    dispatcher — the server answers them itself. *)
let dispatch (env : env) : Mhls_serve.Server.dispatch =
 fun ~trace req ->
  match req with
  | P.Compile c -> Result.map (fun r -> P.R_compile r) (compile env ~trace c)
  | P.Lint l -> Result.map (fun r -> P.R_lint r) (lint l)
  | P.Opt o -> Result.map (fun r -> P.R_opt r) (opt o)
  | P.Dse d ->
      Result.map
        (fun r -> P.R_dse r)
        (dse ?cache_dir:env.cache_dir ~jobs:env.jobs ~trace d)
  | P.Fuzz f -> Result.map (fun r -> P.R_fuzz r) (fuzz ~trace f)
  | P.List_kernels -> Ok (P.R_list (list_kernels ()))
  | P.Stats | P.Ping | P.Shutdown ->
      Error
        [ P.protocol_error "request is handled by the server, not the dispatcher" ]

(* ------------------------------------------------------------------ *)
(* CLI-only handlers (no daemon surface, same purity contract)        *)
(* ------------------------------------------------------------------ *)

type emit_stage = Mhir | Mhir_generic | Llvm | Adapted | Cpp

(** Print a kernel's IR at a chosen stage. *)
let emit ~(kernel : string) ~(stage : emit_stage)
    ~(directives : P.directives) : (string, Diag.t list) result =
  let* k = find_kernel kernel in
  let* d = directives_of_protocol k directives in
  let m = k.K.build d in
  match stage with
  | Mhir -> Ok (Mhir.Printer.module_to_string m)
  | Mhir_generic -> Ok (Mhir.Printer.module_to_string ~generic:true m)
  | Llvm ->
      let lm = Lowering.Lower.lower_module (Mhir.Canonicalize.run m) in
      let lm =
        fst (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline lm)
      in
      Ok (Llvmir.Lprinter.module_to_string lm)
  | Adapted ->
      let* lm, _, _ = Flow.direct_ir_frontend m in
      Ok (Llvmir.Lprinter.module_to_string lm)
  | Cpp ->
      let _, cpp, _ = Flow.hls_cpp_frontend m in
      Ok cpp

(** Run the full grid — frontend (direct-IR vs HLS C++) × scheduling
    discipline — on one kernel ({!Flow.compare_flows}). *)
let compare_kernel ~(kernel : string) ~(directives : P.directives)
    ~(clock_ns : float) : (Flow.result list, Diag.t list) result =
  let* k = find_kernel kernel in
  let* d = directives_of_protocol k directives in
  Ok (Flow.compare_flows ~directives:d ~clock_ns k)

(** Three-way co-simulation. *)
let cosim ~(kernel : string) ~(directives : P.directives) :
    (Flow.cosim_outcome, Diag.t list) result =
  let* k = find_kernel kernel in
  let* d = directives_of_protocol k directives in
  Ok (Flow.cosim ~directives:d k)

type adapt_resp = {
  a_ir : string;  (** legalized IR (stdout) *)
  a_report : string;
      (** rendered adaptor report plus one line per pass with its wall
          time, from the run's trace events (stderr) *)
}

(** Run the adaptor on raw IR source (this tool's textual dialect),
    verifying the source under the manager the adaptor then reuses. *)
let adapt ~(source : string) ~(strict : bool)
    ~(passes : string list option) ~(disable : string list) () :
    (adapt_resp, Diag.t list) result =
  let trace, events = Support.Tracing.collector () in
  let am = Llvmir.Analysis.create ~trace () in
  let* m =
    hls000 (fun () ->
        let m = Llvmir.Lparser.parse_module source in
        Llvmir.Lverifier.verify_module ~am m;
        m)
  in
  let* pipeline = pipeline_of ~strict ~passes ~disable () in
  (* the adaptor verifies its own output, which a pass can break *)
  let* m', report =
    Result.join (hls000 (fun () -> Adaptor.run ~pipeline ~trace ~am m))
  in
  let pass_lines =
    List.filter_map
      (fun (e : Support.Tracing.event) ->
        if e.ev_stage <> "adaptor" then None
        else Some (Printf.sprintf "  pass %-24s %.4fs\n" e.ev_pass e.ev_seconds))
      (events ())
  in
  Ok
    {
      a_ir = Llvmir.Lprinter.module_to_string m';
      a_report = String.concat "" (Adaptor.report_to_string report :: pass_lines);
    }

type synth_mlir_resp = {
  sm_report : string;  (** rendered synthesis report (stdout) *)
  sm_aux : string;  (** adaptor report / generated C++ for [-v] (stderr) *)
}

(** Compile a textual multi-level IR module end-to-end; [flow] and
    [sched] are names, as in a compile request.  Front-end and
    estimator failures are diagnostics, as for a compile job. *)
let synth_mlir ~(source : string) ~(top : string option) ~(flow : string)
    ~(sched : string) ~(clock_ns : float) () :
    (synth_mlir_resp, Diag.t list) result =
  let* flow = resolve "flow" Flow.flow_names flow in
  let* sched = resolve "sched" sched_names sched in
  let* m =
    hls000 (fun () ->
        let m = Mhir.Parser.parse_module source in
        Mhir.Verifier.verify_module m;
        m)
  in
  let* top =
    match (top, m.Mhir.Ir.funcs) with
    | Some t, _ -> Ok t
    | None, f :: _ -> Ok f.Mhir.Ir.fname
    | None, [] -> Error [ P.protocol_error "module has no functions" ]
  in
  Result.join
    (D.guard ~label:top (fun () ->
         let* lm, aux =
           match flow with
           | Flow.Direct_ir ->
               let* lm, report, _ = Flow.direct_ir_frontend m in
               Ok (lm, Adaptor.report_to_string report)
           | Flow.Hls_cpp ->
               let lm, cpp, _ = Flow.hls_cpp_frontend m in
               Ok (lm, cpp)
         in
         let r = Hls_backend.Backend.synthesize ~clock_ns ~sched ~top lm in
         Ok { sm_report = Hls_backend.Report.render r; sm_aux = aux }))

(** Batch compilation from a manifest or the built-in grid.  [sched]
    names the estimation backend for the built-in grid; manifest lines
    choose their own via the [sched=] key.  [?events] asks every job
    for its pass events (the batch trace). *)
let batch ?events ~(manifest : string option) ~(all_kernels : bool)
    ~(both_flows : bool) ~(sched : string) ~(jobs : int)
    ~(cache_dir : string option) ~(clock_ns : float)
    ~(passes : string list option) ~(disable : string list) () :
    (D.batch_report, Diag.t list) result =
  let* sched = resolve "sched" sched_names sched in
  let* pipeline = pipeline_of ~passes ~disable () in
  let* js =
    match (manifest, all_kernels) with
    | Some text, _ ->
        Result.map_error (fun d -> [ d ]) (D.parse_manifest text)
    | None, true ->
        let flows =
          if both_flows then [ Flow.Direct_ir; Flow.Hls_cpp ]
          else [ Flow.Direct_ir ]
        in
        Ok (D.all_kernel_jobs ~flows ~scheds:[ sched ] ~clock_ns ())
    | None, false ->
        Error [ P.protocol_error "batch needs a manifest or --all-kernels" ]
  in
  Ok (D.run_batch ?events ~pipeline ?cache_dir ~jobs js)
