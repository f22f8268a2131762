(** [mhlsc] — command-line driver for the MLIR HLS adaptor flows.

    Subcommands:
    - [list]     enumerate the built-in kernels;
    - [emit]     print a kernel's IR at any stage of either flow;
    - [synth]    run a flow end-to-end and print the synthesis report
                 ([compile] is an alias);
    - [compare]  run both flows and compare QoR;
    - [cosim]    three-way functional co-simulation;
    - [adapt]    run the adaptor on an .ll file (our textual dialect);
    - [lint]     run the HLS diagnostics engine and report all findings;
    - [batch]    compile a set of jobs in parallel with result caching;
    - [dse]      explore the directive design space;
    - [opt]      run the LLVM pass pipeline, optionally
                 parallel-by-function behind the static safety checker;
    - [serve]    long-lived compile daemon over a Unix socket;
    - [client]   send one protocol request to a running daemon.

    This file is a {e thin argv layer}: every subcommand parses flags
    into the typed requests of {!Mhls_serve.Protocol} (or the local
    request types of {!Mhls_cli.Handlers}) and calls the same pure
    handlers the [serve] dispatcher uses; responses are printed via
    {!Mhls_cli.Render}.  Only here are [result] errors rendered and
    turned into exit codes. *)

open Cmdliner
module K = Workloads.Kernels
module D = Mhls_driver.Driver
module P = Mhls_serve.Protocol
module H = Mhls_cli.Handlers
module R = Mhls_cli.Render

(* ------------------------------------------------------------------ *)
(* Error rendering: the exception/exit boundary                       *)
(* ------------------------------------------------------------------ *)

let die (ds : Support.Diag.t list) : 'a =
  prerr_string (Support.Diag.render ds);
  exit (Support.Diag.exit_code ds)

let ok_or_die = function Ok v -> v | Error ds -> die ds

let find_kernel name =
  match K.by_name name with
  | Some k -> k
  | None ->
      Printf.eprintf "unknown kernel %s; try `mhlsc list`\n" name;
      exit 1

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                   *)
(* ------------------------------------------------------------------ *)

let kernel_arg =
  let doc = "Kernel name (see `mhlsc list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

(* A flag taking a name from a knob's name table; the handlers resolve
   it, as they do a request's. *)
let names_arg (names : (string * _) list) default opt_name ~docv ~doc =
  Arg.(
    value
    & opt (enum (List.map (fun (n, _) -> (n, n)) names)) default
    & info [ opt_name ] ~docv ~doc)

let clock_arg =
  let doc = "Target clock period in nanoseconds." in
  Arg.(value & opt float P.default_clock_ns & info [ "clock" ] ~docv:"NS" ~doc)

let flow_arg =
  let doc = "Flow: $(b,direct) (MLIR->LLVM IR->adaptor, the paper's \
             proposal) or $(b,cpp) (MLIR->HLS C++->Clang, the baseline); \
             $(b,direct-ir) and $(b,hls-cpp) name the same flows." in
  names_arg Flow.flow_names P.default_flow "flow" ~docv:"FLOW" ~doc

let sched_arg =
  let doc = "Scheduling discipline of the estimation backend: \
             $(b,static) (list scheduling, the default) or $(b,dynamic) \
             (elastic/dataflow: units fire when operands arrive, loop II \
             emerges from token round-trip time)." in
  names_arg H.sched_names P.default_sched "sched" ~docv:"SCHED" ~doc

(** The directive flags of emit, synth, compare, cosim and lint, as a
    request's directives ([--ii 0] disables pipelining). *)
let directives_term : P.directives Term.t =
  let ii =
    let doc = "Pipeline target II (0 disables pipelining)." in
    Arg.(value & opt int P.default_ii
         & info [ "pipeline"; "ii" ] ~docv:"II" ~doc)
  in
  let strategy =
    let doc = "Directive strategy: $(b,inner) pipelines the reduction loop; \
               $(b,middle) pipelines the second-innermost loop and fully \
               unrolls the reduction." in
    names_arg H.strategy_names P.default_strategy "strategy" ~docv:"S" ~doc
  in
  let unroll =
    let doc = "Unroll factor for the innermost loop (inner strategy only)." in
    Arg.(value & opt (some int) None & info [ "unroll" ] ~docv:"N" ~doc)
  in
  let partitions =
    let doc = "Array partition directive, repeatable: ARRAY:KIND:FACTOR:DIM \
               (e.g. A:cyclic:4:2).  KIND is cyclic, block or complete, \
               FACTOR at least 1, and DIM within the array's rank." in
    let spec =
      Arg.conv'
        ( (fun s ->
            Option.to_result (K.partition_of_string s)
              ~none:(Printf.sprintf "bad partition spec '%s'" s)),
          fun ppf p -> Format.pp_print_string ppf (K.partition_to_string p) )
    in
    Arg.(value & opt_all spec [] & info [ "partition" ] ~docv:"SPEC" ~doc)
  in
  let make ii d_strategy d_unroll d_partitions =
    { P.d_ii = Some ii; d_unroll; d_strategy; d_partitions }
  in
  Term.(const make $ ii $ strategy $ unroll $ partitions)

(* Adaptor pass-pipeline flags, shared by adapt / lint / synth / batch *)

let passes_arg =
  let doc =
    "Run exactly these adaptor passes, in order (comma-separated). \
     Defaults to the full pipeline; see the README for pass names."
  in
  Arg.(value & opt (some string) None & info [ "passes" ] ~docv:"P1,P2" ~doc)

let disable_pass_arg =
  let doc = "Disable one adaptor pass by name (repeatable)." in
  Arg.(value & opt_all string [] & info [ "disable-pass" ] ~docv:"NAME" ~doc)

let split_passes = Option.map (String.split_on_char ',')

let jobs_arg =
  let doc = "Worker domains to compile on (1 = sequential)." in
  Arg.(value & opt int P.default_jobs & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Result cache directory (content-addressed; safe to share between \
     runs).  Pass the empty string to disable caching."
  in
  Arg.(value & opt string ".mhlsc-cache" & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let cache_dir_opt dir = if dir = "" then None else Some dir

let read_file path = In_channel.with_open_text path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* list                                                               *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () = print_string (R.kernel_list (H.list_kernels ())) in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark kernels.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* emit                                                               *)
(* ------------------------------------------------------------------ *)

let stage_arg =
  let doc = "IR stage to print: mhir, mhir-generic, llvm (modern), \
             adapted (HLS-ready), or cpp (baseline C++)." in
  Arg.(value & opt (enum
         [ ("mhir", H.Mhir); ("mhir-generic", H.Mhir_generic);
           ("llvm", H.Llvm); ("adapted", H.Adapted); ("cpp", H.Cpp) ])
         H.Adapted
       & info [ "stage" ] ~docv:"STAGE" ~doc)

let emit_cmd =
  let run kernel stage directives =
    let k = find_kernel kernel in
    print_string (ok_or_die (H.emit ~kernel:k.K.kname ~stage ~directives))
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Print a kernel's IR at a chosen stage.")
    Term.(const run $ kernel_arg $ stage_arg $ directives_term)

(* ------------------------------------------------------------------ *)
(* synth (and its service-speak alias, compile)                       *)
(* ------------------------------------------------------------------ *)

let synth_run kernel flow sched directives clock verbose passes disable =
  let k = find_kernel kernel in
  let req =
    {
      P.c_kernel = k.K.kname;
      c_flow = flow;
      c_sched = sched;
      c_directives = directives;
      c_clock_ns = clock;
      c_passes = split_passes passes;
      c_disable = disable;
    }
  in
  let env = H.create_env () in
  Fun.protect
    ~finally:(fun () -> H.close_env env)
    (fun () ->
      let resp =
        ok_or_die (H.compile env ~trace:Support.Tracing.null req)
      in
      print_string (R.compile ~verbose resp))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the adaptor report.")

let synth_term =
  Term.(const synth_run $ kernel_arg $ flow_arg $ sched_arg $ directives_term
        $ clock_arg $ verbose_arg $ passes_arg $ disable_pass_arg)

let synth_cmd =
  Cmd.v
    (Cmd.info "synth" ~doc:"Run one flow end-to-end and print the synthesis report.")
    synth_term

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Alias of $(b,synth): the same compile job the serve protocol \
             runs, named like the service request.")
    synth_term

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run kernel directives clock =
    let k = find_kernel kernel in
    print_string
      (R.compare
         (ok_or_die
            (H.compare_kernel ~kernel:k.K.kname ~directives ~clock_ns:clock)))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run both flows and compare QoR.")
    Term.(const run $ kernel_arg $ directives_term $ clock_arg)

(* ------------------------------------------------------------------ *)
(* cosim                                                              *)
(* ------------------------------------------------------------------ *)

let cosim_cmd =
  let run kernel directives =
    let k = find_kernel kernel in
    let cs = ok_or_die (H.cosim ~kernel:k.K.kname ~directives) in
    print_string (R.cosim cs);
    if not cs.Flow.ok then exit 1
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:"Co-simulate: mhir interpreter, both flows' LLVM IR, and the \
             OCaml reference must agree.")
    Term.(const run $ kernel_arg $ directives_term)

(* ------------------------------------------------------------------ *)
(* adapt                                                              *)
(* ------------------------------------------------------------------ *)

let adapt_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.ll" ~doc:"LLVM IR file (this tool's dialect).")
  in
  let run file strict passes disable =
    let r =
      ok_or_die
        (H.adapt ~source:(read_file file) ~strict
           ~passes:(split_passes passes) ~disable ())
    in
    prerr_string r.H.a_report;
    print_string r.H.a_ir
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
         ~doc:"Fail unless the output is fully HLS-ready.")
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:"Run the adaptor on an .ll file and print the legalized IR \
             (report goes to stderr).")
    Term.(const run $ file $ strict $ passes_arg $ disable_pass_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                               *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let target =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"TARGET"
             ~doc:"Kernel name (see `mhlsc list`) or an .ll file (this \
                   tool's dialect).  Kernels are linted on the adapter's \
                   HLS-ready output; files are linted as written.  Not \
                   needed with $(b,--list-rules).")
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ]
             ~doc:"Print the rule registry (ID, default severity, summary) \
                   and exit.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the diagnostics as JSON.")
  in
  let werror =
    Arg.(value & flag & info [ "werror" ] ~doc:"Promote warnings to errors.")
  in
  let top =
    Arg.(value & opt (some string) None
         & info [ "top" ] ~docv:"NAME"
             ~doc:"Top function for interface rules (default: the module's \
                   single function).")
  in
  let rules =
    Arg.(value & opt (some string) None
         & info [ "rules" ] ~docv:"IDS"
             ~doc:"Comma-separated rule IDs to keep (e.g. HLS001,HLS004).")
  in
  let run target list_rules json werror top rules directives passes disable =
    if list_rules then begin
      print_string (R.rule_list ~json);
      exit 0
    end;
    let target =
      match target with
      | Some t -> t
      | None ->
          prerr_endline "lint: need a TARGET (or --list-rules)";
          exit 2
    in
    let l_kernel, l_source =
      if Sys.file_exists target then (None, Some (read_file target))
      else (Some (find_kernel target).K.kname, None)
    in
    let req =
      {
        P.l_kernel;
        l_source;
        l_directives = directives;
        l_rules = split_passes rules;
        l_werror = werror;
        l_top = top;
        l_passes = split_passes passes;
        l_disable = disable;
      }
    in
    let diags = (ok_or_die (H.lint req)).P.lr_diags in
    if json then print_endline (Support.Diag.to_json diags)
    else print_string (Support.Diag.render diags);
    exit (Support.Diag.exit_code diags)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the HLS diagnostics engine: dataflow and dependence \
             analyses plus compatibility rules, reported all at once. \
             Exit code: 0 clean, 1 warnings, 2 errors.")
    Term.(const run $ target $ list_rules $ json $ werror $ top $ rules
          $ directives_term $ passes_arg $ disable_pass_arg)

(* ------------------------------------------------------------------ *)
(* synth-mlir: compile a textual multi-level IR file                  *)
(* ------------------------------------------------------------------ *)

let synth_mlir_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.mlir"
             ~doc:"Multi-level IR in generic textual form (as printed by \
                   `mhlsc emit --stage mhir-generic`).")
  in
  let top =
    Arg.(value & opt (some string) None
         & info [ "top" ] ~docv:"NAME"
             ~doc:"Top function (default: the first function).")
  in
  let run file top flow sched clock verbose =
    let r =
      ok_or_die
        (H.synth_mlir ~source:(read_file file) ~top ~flow ~sched
           ~clock_ns:clock ())
    in
    if verbose then prerr_string r.H.sm_aux;
    print_string r.H.sm_report
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Print the adaptor report / generated C++ to stderr.")
  in
  Cmd.v
    (Cmd.info "synth-mlir"
       ~doc:"Parse a textual multi-level IR file, run a flow end-to-end and \
             print the synthesis report.")
    Term.(const run $ file $ top $ flow_arg $ sched_arg $ clock_arg $ verbose)

(* ------------------------------------------------------------------ *)
(* dse                                                                *)
(* ------------------------------------------------------------------ *)

let dse_cmd =
  let run kernel sched max_evals rounds stable budget_bram budget_dsp
      budget_lut jobs cache_dir clock out =
    let k = find_kernel kernel in
    let req =
      {
        P.ds_kernel = k.K.kname;
        ds_sched = sched;
        ds_max_evals = Some max_evals;
        ds_rounds = Some rounds;
        ds_stable = Some stable;
        ds_budget_bram = budget_bram;
        ds_budget_dsp = budget_dsp;
        ds_budget_lut = budget_lut;
        ds_clock_ns = clock;
      }
    in
    let r =
      ok_or_die
        (H.dse ?cache_dir:(cache_dir_opt cache_dir) ~jobs
           ~trace:Support.Tracing.null req)
    in
    print_string r.P.dr_report;
    (match out with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc r.P.dr_json);
        (* validate what we just wrote, so a green exit implies a
           schema-conforming export (CI asserts on this) *)
        (match Mhls_dse.Dse_json.validate_file path with
        | Ok () -> Printf.printf "\ndse.json: frontier -> %s (valid)\n" path
        | Error e ->
            Printf.eprintf "dse.json: %s\n" e;
            exit 1)
    | None -> ());
    print_string (R.dse_best r)
  in
  let module S = Mhls_dse.Search in
  let dse_sched =
    let doc = "Estimation-backend axis of the space: $(b,static), \
               $(b,dynamic), or $(b,both) (the search then explores \
               scheduling discipline as one more axis)." in
    names_arg H.dse_sched_names P.default_sched "sched" ~docv:"SCHED" ~doc
  in
  let max_evals =
    Arg.(value & opt int S.default_params.S.max_evals
         & info [ "max-evals" ] ~docv:"N"
             ~doc:"Cap on distinct configurations evaluated.")
  in
  let rounds =
    Arg.(value & opt int S.default_params.S.max_rounds
         & info [ "rounds" ] ~docv:"N" ~doc:"Cap on search rounds.")
  in
  let stable =
    Arg.(value & opt int S.default_params.S.stable_rounds
         & info [ "stable-rounds" ] ~docv:"K"
             ~doc:"Stop after K consecutive rounds without frontier change.")
  in
  let budget_bram =
    Arg.(value & opt (some int) None
         & info [ "budget-bram"; "max-bram" ] ~docv:"N" ~doc:"BRAM18K budget.")
  in
  let budget_dsp =
    Arg.(value & opt (some int) None
         & info [ "budget-dsp"; "max-dsp" ] ~docv:"N" ~doc:"DSP48 budget.")
  in
  let budget_lut =
    Arg.(value & opt (some int) None
         & info [ "budget-lut" ] ~docv:"N" ~doc:"LUT budget.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE.json"
             ~doc:"Write the versioned dse.json frontier export (validated \
                   after writing).")
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:"Pareto-archive design-space exploration: the search space is \
             derived from the kernel's own loops and arrays, candidates \
             compile as parallel cached jobs on the batch driver, and the \
             frontier is deterministic for any $(b,--jobs).")
    Term.(const run $ kernel_arg $ dse_sched $ max_evals $ rounds $ stable
          $ budget_bram $ budget_dsp $ budget_lut $ jobs_arg $ cache_dir_arg
          $ clock_arg $ out)

(* ------------------------------------------------------------------ *)
(* batch                                                              *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let manifest =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"MANIFEST"
             ~doc:"Job manifest: one job per line, `KERNEL key=value ...` \
                   (see the README).  Mutually exclusive with \
                   $(b,--all-kernels).")
  in
  let all_kernels =
    Arg.(value & flag
         & info [ "all-kernels" ]
             ~doc:"Sweep every built-in kernel through the default \
                   directive grid.")
  in
  let both_flows =
    Arg.(value & flag
         & info [ "both-flows" ]
             ~doc:"With $(b,--all-kernels): run the HLS C++ baseline flow \
                   next to the direct-IR flow.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE.json"
             ~doc:"Write the per-job per-pass JSON trace and print the \
                   aggregate pass summary.")
  in
  let run manifest all_kernels both_flows sched jobs cache_dir trace_out
      clock passes disable =
    let b =
      ok_or_die
        (H.batch ~events:(trace_out <> None)
           ~manifest:(Option.map read_file manifest)
           ~all_kernels ~both_flows ~sched ~jobs
           ~cache_dir:(cache_dir_opt cache_dir) ~clock_ns:clock
           ~passes:(split_passes passes) ~disable ())
    in
    print_string (D.render b);
    (match trace_out with
    | Some path ->
        let records = D.trace_records b in
        Mhls_driver.Trace.write_file ~tool:D.tool_version path records;
        Printf.printf "\ntrace: %d records -> %s\n%s" (List.length records)
          path
          (Mhls_driver.Trace.summary_table records)
    | None -> ());
    let failed =
      List.exists
        (fun (o : D.outcome) -> Result.is_error o.D.o_qor)
        b.D.outcomes
    in
    exit (if failed then 1 else 0)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile a set of jobs (kernel × flow × directives) on a \
             parallel worker pool with persistent result caching; print \
             the QoR table, run statistics, and optionally a per-pass \
             JSON trace.")
    Term.(const run $ manifest $ all_kernels $ both_flows $ sched_arg
          $ jobs_arg $ cache_dir_arg $ trace_out $ clock_arg $ passes_arg
          $ disable_pass_arg)

(* ------------------------------------------------------------------ *)
(* opt: run the LLVM pass pipeline (optionally parallel-by-function)  *)
(* ------------------------------------------------------------------ *)

let opt_cmd =
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE.ll"
             ~doc:"LLVM IR file (this tool's dialect).  Mutually exclusive \
                   with $(b,--synth).")
  in
  let synth_n =
    Arg.(value & opt (some int) None
         & info [ "synth" ] ~docv:"N"
             ~doc:"Instead of a file, optimize a generated module of N \
                   independent kernel functions (the parallel-pipeline \
                   smoke workload).")
  in
  let parallel =
    Arg.(value & flag
         & info [ "parallel-passes" ]
             ~doc:"Fan the function-local pass tail out over $(b,--jobs) \
                   worker domains when the static parallel-safety checker \
                   proves the module race-free; byte-identical to the \
                   sequential pipeline.")
  in
  let llvm_passes =
    Arg.(value & opt (some string) None
         & info [ "passes" ] ~docv:"P1,P2"
             ~doc:"Run exactly these LLVM passes, in order \
                   (comma-separated; see `Pass.by_name`).  Defaults to the \
                   full cleanup pipeline.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the optimized module here instead of stdout.")
  in
  let parsafe =
    Arg.(value & flag
         & info [ "parsafe" ]
             ~doc:"Only run the parallel-safety checker and print its \
                   verdict (exit 0 safe, 1 unsafe).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"With $(b,--parsafe): emit the verdict as JSON.")
  in
  let run file synth_n parallel llvm_passes jobs out parsafe json =
    let req =
      {
        P.op_source = Option.map read_file file;
        op_synth = synth_n;
        op_passes = split_passes llvm_passes;
        op_parallel = parallel;
        op_jobs = jobs;
        op_parsafe = parsafe;
        op_json = json;
      }
    in
    let r = ok_or_die (H.opt req) in
    if parsafe then begin
      print_endline (Option.value r.P.or_verdict ~default:"");
      exit (if r.P.or_safe then 0 else 1)
    end;
    (match r.P.or_par_status with
    | Some status -> Printf.eprintf "opt: %s\n" status
    | None -> ());
    Printf.eprintf "opt: %d passes, %.1f ms\n" r.P.or_passes
      (r.P.or_seconds *. 1000.0);
    match out with
    | Some path -> Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc r.P.or_ir)
    | None -> print_string r.P.or_ir
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:"Run the LLVM cleanup pipeline on a module — from a file or \
             generated with $(b,--synth) — sequentially or, when the \
             parallel-safety checker proves the module race-free, \
             parallel-by-function with byte-identical output.")
    Term.(const run $ file $ synth_n $ parallel $ llvm_passes $ jobs_arg
          $ out $ parsafe $ json)

(* ------------------------------------------------------------------ *)
(* fuzz                                                               *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run seed count stages shrink repro_dir jobs =
    let req =
      { P.f_seed = seed; f_count = count; f_stages = stages;
        f_shrink = shrink; f_jobs = jobs }
    in
    let repro_dir = if repro_dir = "" then None else Some repro_dir in
    let r =
      ok_or_die (H.fuzz ?repro_dir ~trace:Support.Tracing.null req)
    in
    print_string r.P.fr_report;
    exit (if r.P.fr_failures = 0 then 0 else 1)
  in
  let d = P.default_fuzz in
  let seed =
    Arg.(value & opt int d.P.f_seed
         & info [ "seed" ] ~docv:"N" ~doc:"Base seed for the run.")
  in
  let count =
    Arg.(value & opt int d.P.f_count
         & info [ "count" ] ~docv:"N" ~doc:"Number of random kernels to test.")
  in
  let stages =
    let doc =
      "Stages to check against the mhir reference interpreter, \
       repeatable: $(b,lower) (modern LLVM lowering + cleanup), \
       $(b,adapted) (full direct-IR front-end incl. the adaptor) or \
       $(b,cpp) (HLS-C++ emission re-parsed by the mini-C front-end)."
    in
    Arg.(value & opt_all string d.P.f_stages
         & info [ "stages" ] ~docv:"STAGE" ~doc)
  in
  let shrink =
    Arg.(value & opt bool d.P.f_shrink
         & info [ "shrink" ] ~docv:"BOOL"
             ~doc:"Minimize mismatching kernels before reporting.")
  in
  let repro_dir =
    Arg.(value & opt string ""
         & info [ "repro-dir" ] ~docv:"DIR"
             ~doc:"Write a self-contained .mlir repro per mismatch into DIR.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential testing: run random well-typed kernels through \
             every flow stage on identical inputs and cross-check the \
             results bit-for-bit against the mhir interpreter.")
    Term.(const run $ seed $ count $ stages $ shrink $ repro_dir $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(value & opt string "mhlsc.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Additionally listen on loopback TCP port PORT.")
  in
  let queue_max =
    Arg.(value & opt int Mhls_serve.Server.default_config.queue_max
         & info [ "queue-max" ] ~docv:"N"
             ~doc:"Admission-control bound: pending requests beyond N are \
                   answered $(b,busy) instead of queueing.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No daemon log lines.")
  in
  let budgets =
    Arg.(value & opt_all string []
         & info [ "budget" ] ~docv:"KIND=N"
             ~doc:"Concurrent-evaluation bound for one request kind \
                   (repeatable), e.g. $(b,--budget dse=1).  Kinds not \
                   named keep their defaults (dse=1, fuzz=1, others 4).")
  in
  let max_rss =
    Arg.(value & opt (some int) None
         & info [ "max-rss-mb" ] ~docv:"MB"
             ~doc:"Soft resident-memory cap: above it the daemon sheds its \
                   response memo and latency rings instead of growing \
                   without bound.")
  in
  let parse_budgets (specs : string list) : (string * int) list =
    List.map
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i -> (
            let kind = String.sub spec 0 i in
            let n = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt n with
            | Some n when n >= 1 && kind <> "" -> (kind, n)
            | _ ->
                Printf.eprintf "serve: bad --budget '%s' (want KIND=N, N ≥ 1)\n"
                  spec;
                exit 2)
        | None ->
            Printf.eprintf "serve: bad --budget '%s' (want KIND=N)\n" spec;
            exit 2)
      specs
  in
  let run socket tcp queue_max jobs cache_dir quiet budgets max_rss =
    let budgets = parse_budgets budgets in
    let env =
      (* Oversubscribed pool: the daemon trades cache-friendly sizing
         for latency — short jobs must not wait behind a sweep just
         because the host has few cores. *)
      H.create_env ?cache_dir:(cache_dir_opt cache_dir) ~jobs
        ~oversubscribe:true ()
    in
    let default = Mhls_serve.Server.default_config in
    let config =
      {
        Mhls_serve.Server.socket_path = Some socket;
        tcp_port = tcp;
        queue_max;
        budgets =
          budgets
          @ List.filter
              (fun (k, _) -> not (List.mem_assoc k budgets))
              default.Mhls_serve.Server.budgets;
        max_rss_mb = max_rss;
        log =
          (if quiet then ignore
           else fun s -> Printf.eprintf "serve: %s\n%!" s);
      }
    in
    Fun.protect
      ~finally:(fun () -> H.close_env env)
      (fun () ->
        ok_or_die
          (Mhls_serve.Server.serve ~config
             ~counters:(fun () -> H.counters env)
             ~exec:(H.background env)
             ~dispatch:(H.dispatch env) ()))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived compile daemon: accepts compile / lint / \
             opt / dse / fuzz jobs over a length-prefixed JSON protocol on \
             a Unix socket, keeping the domain pool and the \
             content-addressed result cache warm across requests.  Request \
             groups evaluate concurrently on the domain pool under \
             per-kind $(b,--budget) bounds with round-robin fairness \
             across connections.  Identical queued or in-flight requests \
             coalesce into one evaluation; resubmitted requests are served \
             from the response memo.  Refuses to start (HLS906) if the \
             socket is owned by a live daemon.  Stop with a $(b,shutdown) \
             request (see `mhlsc client`).")
    Term.(const run $ socket_arg $ tcp $ queue_max $ jobs_arg
          $ cache_dir_arg $ quiet $ budgets $ max_rss)

(* ------------------------------------------------------------------ *)
(* client                                                             *)
(* ------------------------------------------------------------------ *)

let client_cmd =
  let module C = Mhls_serve.Client in
  let request_arg =
    Arg.(required & opt (some string) None
         & info [ "request" ] ~docv:"JSON"
             ~doc:"The request object, e.g. \
                   '{\"kind\": \"compile\", \"kernel\": \"matmul\"}' or \
                   '{\"kind\": \"stats\"}'.")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Connect to loopback TCP port PORT instead of the socket.")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Subscribe to pass events (printed to stderr as JSON \
                   lines before the response).")
  in
  let wait =
    Arg.(value & opt float 5.0
         & info [ "wait" ] ~docv:"SECS"
             ~doc:"Keep retrying the connection this long while the daemon \
                   starts.")
  in
  let run socket tcp stream wait request =
    let req =
      match
        Result.bind (Support.Json.parse request) P.request_of_json
      with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "client: bad request: %s\n" e;
          exit 2
    in
    let conn =
      match tcp with
      | Some port -> C.connect_tcp ~retry_for:wait ~port ()
      | None -> C.connect_unix ~retry_for:wait socket
    in
    let c =
      match conn with
      | Ok c -> c
      | Error e ->
          Printf.eprintf "client: cannot connect: %s\n" e;
          exit 2
    in
    let on_event ev =
      Printf.eprintf "%s\n%!"
        (Support.Json.to_string (P.frame_to_json (P.Event ev)))
    in
    let reply =
      match C.request ~stream ~on_event c req with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "client: %s\n" e;
          exit 2
    in
    C.close c;
    print_endline (R.reply_json reply);
    match reply with
    | P.Done _ -> ()
    | P.Busy _ -> exit 1
    | P.Failed _ -> exit 2
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one serve-protocol request to a running daemon and print \
             the JSON response.  Exit code: 0 ok, 1 busy, 2 error.")
    Term.(const run $ socket_arg $ tcp $ stream $ wait $ request_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "MLIR HLS adaptor for LLVM IR — reference implementation" in
  let info = Cmd.info "mhlsc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; emit_cmd; synth_cmd; compile_cmd; compare_cmd;
            cosim_cmd; adapt_cmd; lint_cmd; synth_mlir_cmd; dse_cmd;
            batch_cmd; opt_cmd; fuzz_cmd; serve_cmd; client_cmd ]))
