(** Benchmark harness: regenerates every table and figure of the
    evaluation (see DESIGN.md / EXPERIMENTS.md for the experiment
    index).

    Usage:
      dune exec bench/main.exe            # everything
      dune exec bench/main.exe table2     # one experiment
      dune exec bench/main.exe -- --list  # list experiment ids

    Latency/resource numbers come from the deterministic HLS estimator;
    Table 4's compile times are measured with Bechamel. *)

module K = Workloads.Kernels
module B = Hls_backend.Backend
module E = Hls_backend.Estimate
module T = Support.Table
module D = Mhls_driver.Driver

let kernels = K.all ()

(* One shared batch over every kernel x both flows, compiled through
   the parallel batch driver; table2/table3/fig1 all read from it, so
   each flow runs exactly once per kernel no matter how many
   experiments are selected. *)
let flow_batch =
  lazy
    (let js =
       List.concat_map
         (fun k ->
           List.map
             (fun flow -> D.job ~flow ~kernel:k.K.kname K.pipelined)
             [ Flow.Direct_ir; Flow.Hls_cpp ])
         kernels
     in
     D.run_batch ~jobs:(Mhls_driver.Pool.default_jobs ()) js)

let flow_report kname flow : E.report =
  let b = Lazy.force flow_batch in
  let o =
    List.find
      (fun (o : D.outcome) ->
        o.D.o_job.D.kernel = kname && o.D.o_job.D.flow = flow)
      b.D.outcomes
  in
  match o.D.o_qor with
  | Ok r -> r
  | Error ds -> raise (Support.Diag.Failed ds)

(* benches are a process boundary: escalate front-end diagnostics *)
let frontend_exn ?pipeline m =
  match Flow.direct_ir_frontend ?pipeline m with
  | Ok r -> r
  | Error ds -> raise (Support.Diag.Failed ds)

let hdr title =
  Printf.printf "\n==================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================\n"

(* ------------------------------------------------------------------ *)
(* Table 1: the syntax gap                                            *)
(* ------------------------------------------------------------------ *)

(** HLS-incompatible constructs in the raw MLIR-lowered IR, per kernel,
    and after the adaptor (must be zero). *)
let table1 () =
  hdr "Table 1: unsupported-syntax gap (constructs per kernel)";
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ]
      [ "kernel"; "opaque-ptr"; "descriptor"; "intrinsic"; "loop-md"; "total";
        "after adaptor" ]
  in
  List.iter
    (fun k ->
      let m = k.K.build K.pipelined in
      let lm = Lowering.Lower.lower_module m in
      let lm = fst (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline lm) in
      let issues = Adaptor.Compat.check lm in
      let count kind =
        List.length
          (List.filter
             (fun i -> Adaptor.Compat.kind_name i.Adaptor.Compat.kind = kind)
             issues)
      in
      let adapted, _ = Adaptor.run_exn lm in
      let after = List.length (Adaptor.Compat.check adapted) in
      T.add_row t
        [
          k.K.kname;
          string_of_int (count "opaque-pointer");
          string_of_int (count "memref-descriptor");
          string_of_int (count "modern-intrinsic");
          string_of_int (count "loop-metadata");
          string_of_int (List.length issues);
          string_of_int after;
        ])
    kernels;
  T.print t;
  print_endline
    "(raw MLIR-lowered LLVM IR is rejected outright by the Vitis-era\n\
    \ middle-end; the adaptor closes the gap to zero)"

(* ------------------------------------------------------------------ *)
(* Table 2: latency, both flows                                       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  hdr "Table 2: latency (cycles), direct-IR flow vs HLS C++ flow";
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ]
      [ "kernel"; "direct-IR"; "HLS C++"; "ratio"; "II(dir)"; "II(cpp)" ]
  in
  List.iter
    (fun k ->
      let da = flow_report k.K.kname Flow.Direct_ir in
      let cb = flow_report k.K.kname Flow.Hls_cpp in
      T.add_row t
        [
          k.K.kname;
          string_of_int da.E.latency;
          string_of_int cb.E.latency;
          Printf.sprintf "%.3f"
            (float_of_int cb.E.latency /. float_of_int da.E.latency);
          string_of_int (E.inner_ii da);
          string_of_int (E.inner_ii cb);
        ])
    kernels;
  T.print t;
  print_endline
    "(paper claim: the direct-IR flow achieves comparable performance;\n\
    \ ratio = C++ latency / direct-IR latency, 1.000 = identical)"

(* ------------------------------------------------------------------ *)
(* Table 3: resources, both flows                                     *)
(* ------------------------------------------------------------------ *)

let table3 () =
  hdr "Table 3: resource usage, direct-IR (A) vs HLS C++ (B)";
  let t =
    T.create
      ~aligns:
        [ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right;
          T.Right; T.Right ]
      [ "kernel"; "BRAM(A)"; "BRAM(B)"; "DSP(A)"; "DSP(B)"; "FF(A)"; "FF(B)";
        "LUT(A)"; "LUT(B)" ]
  in
  List.iter
    (fun k ->
      let ra = (flow_report k.K.kname Flow.Direct_ir).E.resources in
      let rb = (flow_report k.K.kname Flow.Hls_cpp).E.resources in
      T.add_row t
        [
          k.K.kname;
          string_of_int ra.E.bram;
          string_of_int rb.E.bram;
          string_of_int ra.E.dsp;
          string_of_int rb.E.dsp;
          string_of_int ra.E.ff;
          string_of_int rb.E.ff;
          string_of_int ra.E.lut;
          string_of_int rb.E.lut;
        ])
    kernels;
  T.print t

(* ------------------------------------------------------------------ *)
(* Figure 1: latency-ratio chart                                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  hdr "Figure 1: latency ratio (HLS C++ / direct-IR) per kernel";
  List.iter
    (fun k ->
      let da = flow_report k.K.kname Flow.Direct_ir in
      let cb = flow_report k.K.kname Flow.Hls_cpp in
      let r = float_of_int cb.E.latency /. float_of_int da.E.latency in
      let bar = String.make (max 1 (int_of_float (r *. 40.0))) '#' in
      Printf.printf "%-10s %5.3f |%s\n" k.K.kname r bar)
    kernels;
  print_endline "(1.000 = parity; >1 means the direct-IR flow is faster)"

(* ------------------------------------------------------------------ *)
(* Figure 2: directive sweep on gemm                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  hdr "Figure 2: gemm latency vs directives (both flows)";
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
      [ "directives"; "direct-IR"; "HLS C++"; "II(dir)"; "II(cpp)" ]
  in
  let cases =
    [
      ("none", K.no_directives);
      ("pipeline inner", K.pipelined);
      ("pipeline inner + unroll 2", { K.pipelined with K.unroll = Some 2 });
      ("pipeline inner + unroll 4", { K.pipelined with K.unroll = Some 4 });
      ("pipeline middle + full unroll", K.optimized ~factor:1 ~parts:[] ());
      ("  + partition factor 2", K.optimized ~factor:2 ~parts:[ ("A", 2); ("B", 1) ] ());
      ("  + partition factor 4", K.optimized ~factor:4 ~parts:[ ("A", 2); ("B", 1) ] ());
      ("  + partition factor 8", K.optimized ~factor:8 ~parts:[ ("A", 2); ("B", 1) ] ());
    ]
  in
  List.iter
    (fun (name, d) ->
      let run kind = (Flow.run_exn ~directives:d (K.gemm ()) kind).Flow.hls in
      let direct = run Flow.Direct_ir and cpp = run Flow.Hls_cpp in
      T.add_row t
        [
          name;
          string_of_int direct.E.latency;
          string_of_int cpp.E.latency;
          string_of_int (E.inner_ii direct);
          string_of_int (E.inner_ii cpp);
        ])
    cases;
  T.print t

(* ------------------------------------------------------------------ *)
(* Figure 3: detail retention (partitioning through flat views)       *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  hdr "Figure 3: array partitioning vs delinearization (gemm + conv2d)";
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ]
      [ "kernel"; "factor"; "adaptor lat"; "adaptor II"; "flat-view lat";
        "flat-view II" ]
  in
  let parts_for = function
    | "gemm" -> [ ("A", 2); ("B", 1) ]
    | "conv2d" -> [ ("img", 2); ("ker", 2) ]
    | _ -> []
  in
  List.iter
    (fun kname ->
      let k = Option.get (K.by_name kname) in
      List.iter
        (fun factor ->
          let d = K.optimized ~factor ~parts:(parts_for kname) () in
          let full = Flow.run_exn ~directives:d k Flow.Direct_ir in
          let m = k.K.build d in
          let lm, _, _ =
            frontend_exn ~pipeline:Adaptor.Pipeline.flat_views m
          in
          let flat = B.synthesize ~top:kname lm in
          T.add_row t
            [
              kname;
              string_of_int factor;
              string_of_int full.Flow.hls.E.latency;
              string_of_int (E.inner_ii full.Flow.hls);
              string_of_int flat.E.latency;
              string_of_int (E.inner_ii flat);
            ])
        [ 1; 2; 4; 8 ])
    [ "gemm"; "conv2d" ];
  T.print t;
  print_endline
    "(flat views — descriptor elimination without delinearization — lose\n\
    \ the array shape, so partition directives cannot take effect)"

(* ------------------------------------------------------------------ *)
(* Table 4: compile time (Bechamel)                                   *)
(* ------------------------------------------------------------------ *)

let table4 () =
  hdr "Table 4: front-of-HLS compile time (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let ks = [ K.gemm (); K.mm2 (); K.conv2d () ] in
  let tests =
    Test.make_grouped ~name:"flows"
      (List.concat_map
         (fun k ->
           [
             Test.make
               ~name:(k.K.kname ^ "/direct-ir")
               (Staged.stage (fun () ->
                    ignore (Flow.direct_ir_frontend (k.K.build K.pipelined))));
             Test.make
               ~name:(k.K.kname ^ "/hls-cpp")
               (Staged.stage (fun () ->
                    ignore (Flow.hls_cpp_frontend (k.K.build K.pipelined))));
           ])
         ks)
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = T.create ~aligns:[ T.Left; T.Right ] [ "flow"; "time/run (ms)" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%.3f" (e /. 1e6)
        | _ -> "?"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (n, e) -> T.add_row t [ n; e ])
    (List.sort compare !rows);
  T.print t;
  print_endline
    "(the direct-IR flow skips C++ emission and re-parsing)";
  (* where the adaptor's share goes: the "adaptor" events of one traced
     direct-IR run per kernel (every kernel runs the same passes) *)
  let adaptor_events (k : K.kernel) =
    let trace, events = Support.Tracing.collector () in
    ignore (Flow.direct_ir_frontend ~trace (k.K.build K.pipelined));
    List.filter
      (fun (e : Support.Tracing.event) -> e.ev_stage = "adaptor")
      (events ())
  in
  let runs = List.map adaptor_events ks in
  let t =
    T.create
      ~aligns:(T.Left :: List.map (fun _ -> T.Right) ks)
      ("adaptor pass (ms)" :: List.map (fun k -> k.K.kname) ks)
  in
  List.iteri
    (fun i (e : Support.Tracing.event) ->
      T.add_row t
        (e.ev_pass
        :: List.map
             (fun evs ->
               Printf.sprintf "%.3f"
                 ((List.nth evs i).Support.Tracing.ev_seconds *. 1000.0))
             runs))
    (List.hd runs);
  T.print t

(* ------------------------------------------------------------------ *)
(* Bench target: adaptor + cleanup-pipeline compile time per kernel   *)
(* ------------------------------------------------------------------ *)

(** Measures the middle-of-flow cost this repo actually optimizes: the
    LLVM cleanup pipeline plus the adaptor, per kernel, on pre-lowered
    IR (lowering and HLS estimation excluded).  Writes the results to
    [BENCH_compile.json] (override with [MHLSC_BENCH_COMPILE_OUT]);
    [MHLSC_BENCH_SMOKE=1] shrinks the measurement budget for CI. *)
let compile_bench () =
  hdr "Bench: adaptor + cleanup pipeline compile time per kernel";
  let open Bechamel in
  let open Toolkit in
  let smoke = Sys.getenv_opt "MHLSC_BENCH_SMOKE" <> None in
  let out =
    Option.value
      (Sys.getenv_opt "MHLSC_BENCH_COMPILE_OUT")
      ~default:"BENCH_compile.json"
  in
  let prepared =
    List.map
      (fun k ->
        let m = Mhir.Canonicalize.run (k.K.build K.pipelined) in
        let lm = Lowering.Lower.lower_module ~style:Lowering.Lower.modern m in
        (k.K.kname, lm))
      kernels
  in
  (* scaling case: the cleanup pipeline over a 100-function module,
     sequential vs parallel-by-function on the domain pool (Parsafe
     gates the parallel path; output is byte-identical) *)
  let m100 = Mhls_driver.Synth.many_kernels ~n:100 in
  let par_fanout = Mhls_driver.Pool.fanout ~jobs:(if smoke then 2 else 4) in
  let tests =
    Test.make_grouped ~name:"compile"
      (List.map
         (fun (name, lm) ->
           Test.make ~name
             (Staged.stage (fun () ->
                  ignore (Adaptor.run (Flow.llvm_cleanup lm)))))
         prepared
      @ [
          Test.make ~name:"manyfunc100-seq"
            (Staged.stage (fun () ->
                 ignore
                   (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline m100)));
          Test.make ~name:"manyfunc100-par"
            (Staged.stage (fun () ->
                 ignore
                   (Llvmir.Pass.run_pipeline_parallel ~fanout:par_fanout
                      Llvmir.Pass.default_pipeline m100)));
        ])
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:20 ~quota:(Time.second 0.05) ~stabilize:false ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ e ] -> rows := (name, e /. 1e6) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  let t = T.create ~aligns:[ T.Left; T.Right ] [ "kernel"; "time/run (ms)" ] in
  List.iter (fun (n, ms) -> T.add_row t [ n; Printf.sprintf "%.3f" ms ]) rows;
  T.print t;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n  \"version\": 1,\n  \"experiment\": \"compile\",\n";
  Buffer.add_string buf "  \"unit\": \"ms-per-run\",\n  \"kernels\": [\n";
  List.iteri
    (fun i (name, ms) ->
      let kname =
        match String.rindex_opt name '/' with
        | Some j -> String.sub name (j + 1) (String.length name - j - 1)
        | None -> name
      in
      Buffer.add_string buf
        (Printf.sprintf "    { \"kernel\": \"%s\", \"ms\": %.6f }%s\n" kname ms
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d kernels%s)\n" out (List.length rows)
    (if smoke then ", smoke budget" else "")

(* ------------------------------------------------------------------ *)
(* Bench gate: compile-time regression check                          *)
(* ------------------------------------------------------------------ *)

(** Compares [BENCH_compile.json] against [BENCH_compile_baseline.json]
    (override with [MHLSC_BENCH_COMPILE_OUT] /
    [MHLSC_BENCH_COMPILE_BASELINE]): geometric mean of per-kernel
    time ratios over the kernel intersection, exit 1 when the geomean
    regresses by more than 5%.  CI runs this on the checked-in files,
    so a change that slows compilation must refresh the baseline
    deliberately. *)
let compile_gate () =
  hdr "Bench gate: compile time vs checked-in baseline";
  let module J = Support.Json in
  let file env default = Option.value (Sys.getenv_opt env) ~default in
  let cur_f = file "MHLSC_BENCH_COMPILE_OUT" "BENCH_compile.json" in
  let base_f =
    file "MHLSC_BENCH_COMPILE_BASELINE" "BENCH_compile_baseline.json"
  in
  let load f =
    let s =
      let ic = open_in f in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match J.parse s with
    | Error e ->
        Printf.eprintf "compile-gate: %s: %s\n" f e;
        exit 1
    | Ok j -> (
        match J.list_member "kernels" j with
        | None ->
            Printf.eprintf "compile-gate: %s: no \"kernels\" array\n" f;
            exit 1
        | Some ks ->
            List.filter_map
              (fun o ->
                match (J.str_member "kernel" o, J.float_member "ms" o) with
                | Some k, Some ms when ms > 0.0 -> Some (k, ms)
                | _ -> None)
              ks)
  in
  let cur = load cur_f and base = load base_f in
  let ratios =
    List.filter_map
      (fun (k, ms) ->
        Option.map (fun b -> (k, ms, b, ms /. b)) (List.assoc_opt k base))
      cur
  in
  if ratios = [] then begin
    Printf.eprintf "compile-gate: no common kernels between %s and %s\n" cur_f
      base_f;
    exit 1
  end;
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
      [ "kernel"; "current (ms)"; "baseline (ms)"; "ratio" ]
  in
  List.iter
    (fun (k, ms, b, r) ->
      T.add_row t
        [ k; Printf.sprintf "%.3f" ms; Printf.sprintf "%.3f" b;
          Printf.sprintf "%.3f" r ])
    ratios;
  T.print t;
  let geomean =
    exp
      (List.fold_left (fun a (_, _, _, r) -> a +. log r) 0.0 ratios
      /. float_of_int (List.length ratios))
  in
  Printf.printf "geomean ratio: %.4f over %d kernels (gate: <= 1.05)\n" geomean
    (List.length ratios);
  if geomean > 1.05 then begin
    Printf.eprintf
      "compile-gate: FAIL — compile time regressed %.1f%% vs baseline\n"
      ((geomean -. 1.0) *. 100.0);
    exit 1
  end
  else print_endline "compile-gate: OK"

(* ------------------------------------------------------------------ *)
(* Ablation: adaptor pass contributions                               *)
(* ------------------------------------------------------------------ *)

let ablation () =
  hdr "Ablation A: adaptor pipelines on gemm (optimized directives)";
  let d = K.optimized ~factor:4 ~parts:[ ("A", 2); ("B", 1) ] () in
  let m () = (K.gemm ()).K.build d in
  let t = T.create ~aligns:[ T.Left; T.Left ] [ "pipeline"; "outcome" ] in
  let without name =
    match Adaptor.Pipeline.(disable name (relaxed default)) with
    | Ok p -> p
    | Error diag -> failwith (Support.Diag.render [ diag ])
  in
  let try_pipeline name p =
    try
      let lm, _, _ = frontend_exn ~pipeline:p (m ()) in
      match B.synthesize ~top:"gemm" lm with
      | r ->
          T.add_row t
            [ name;
              Printf.sprintf "latency %d cycles, II %d" r.E.latency (E.inner_ii r) ]
      | exception E.Rejected errs ->
          T.add_row t
            [ name;
              Printf.sprintf "REJECTED (%d issues, e.g. \"%s\")"
                (List.length errs) (List.hd errs) ]
    with
    | Support.Err.Compile_error e ->
        T.add_row t [ name; "FAILED: " ^ Support.Err.to_string e ]
    | Support.Diag.Failed ds ->
        T.add_row t
          [ name; Printf.sprintf "FAILED: %d diagnostics" (List.length ds) ]
  in
  try_pipeline "full adaptor" Adaptor.Pipeline.default;
  try_pipeline "no delinearization (flat views)" Adaptor.Pipeline.flat_views;
  try_pipeline "no descriptor elimination"
    Adaptor.Pipeline.no_descriptor_elimination;
  try_pipeline "no intrinsic legalization" (without "legalize-intrinsics");
  try_pipeline "no typed-pointer reconstruction" (without "typed-pointers");
  try_pipeline "no metadata translation" (without "translate-metadata");
  T.print t

(* ------------------------------------------------------------------ *)
(* Extension: automatic DSE through the adaptor flow                  *)
(* ------------------------------------------------------------------ *)

let dse () =
  hdr "Extension: automatic design-space exploration (Pareto archive)";
  let module S = Mhls_dse.Search in
  List.iter
    (fun kname ->
      match K.by_name kname with
      | Some k ->
          let o = S.search ~jobs:(Mhls_driver.Pool.default_jobs ()) k in
          print_string (S.render o);
          (match S.best o with
          | Some best ->
              Printf.printf "best: %s (%d cycles)\n\n" best.S.pt_label
                best.S.pt_report.E.latency
          | None -> ())
      | None -> ())
    [ "gemm"; "conv2d" ]

(* ------------------------------------------------------------------ *)
(* Extension: cross-layer unrolling comparison                        *)
(* ------------------------------------------------------------------ *)

let crosslayer () =
  hdr "Extension: unroll at the MLIR level vs HLS-directive unroll (gemm)";
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
      [ "where the unroll happens"; "latency"; "DSP"; "LUT" ]
  in
  let k = K.gemm () in
  let synth m =
    let lm, _, _ = frontend_exn m in
    B.synthesize ~top:"gemm" lm
  in
  let row name (r : E.report) =
    T.add_row t
      [ name; string_of_int r.E.latency; string_of_int r.E.resources.E.dsp;
        string_of_int r.E.resources.E.lut ]
  in
  row "none (pipeline inner only)" (synth (k.K.build K.pipelined));
  row "HLS directive (hls.unroll 4)"
    (synth (k.K.build { K.pipelined with K.unroll = Some 4 }));
  row "MLIR level (Mhir.Loop_unroll x4)"
    (synth (Mhir.Loop_unroll.run ~factor:4 (k.K.build K.pipelined)));
  T.print t;
  print_endline
    "(both unrolls expose the same serial float-accumulation chain; the\n\
    \ cross-layer version does it before lowering, where subscripts are\n\
    \ still affine — the abstract's cross-layer-optimization argument)"

(* ------------------------------------------------------------------ *)
(* Extension: clock sweep (operator chaining)                         *)
(* ------------------------------------------------------------------ *)

let clocksweep () =
  hdr "Extension: gemm latency vs clock period (chaining effect)";
  let t =
    T.create
      ~aligns:[ T.Right; T.Right; T.Right; T.Right ]
      [ "clock (ns)"; "freq (MHz)"; "latency (cycles)"; "time (us)" ]
  in
  List.iter
    (fun clock ->
      let r =
        Flow.run_exn ~directives:K.pipelined ~clock_ns:clock (K.gemm ())
          Flow.Direct_ir
      in
      T.add_row t
        [
          Printf.sprintf "%.1f" clock;
          Printf.sprintf "%.0f" (1000.0 /. clock);
          string_of_int r.Flow.hls.E.latency;
          Printf.sprintf "%.2f"
            (float_of_int r.Flow.hls.E.latency *. clock /. 1000.0);
        ])
    [ 2.0; 3.3; 5.0; 6.7; 10.0; 20.0 ];
  T.print t;
  print_endline
    "(shorter periods break combinational chains into more cycles; the\n\
    \ cycle count rises but wall-clock time still improves until the\n\
    \ operator latencies dominate)"

(* ------------------------------------------------------------------ *)
(* Detailed per-kernel reports                                        *)
(* ------------------------------------------------------------------ *)

let reports () =
  hdr "Appendix: full synthesis reports (direct-IR flow)";
  List.iter
    (fun k ->
      let r = Flow.run_exn k Flow.Direct_ir in
      print_string (Hls_backend.Report.render r.Flow.hls);
      print_newline ())
    kernels

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("compile", compile_bench);
    ("compile-gate", compile_gate);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("ablation", ablation);
    ("dse", dse);
    ("crosslayer", crosslayer);
    ("clocksweep", clocksweep);
    ("reports", reports);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "--list" :: _ -> List.iter (fun (n, _) -> print_endline n) experiments
  | _ :: (_ :: _ as ids) ->
      List.iter
        (fun id ->
          match List.assoc_opt id experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 1)
        ids
  | _ ->
      (* the gate exits non-zero on regression; only run it when asked
         for explicitly (CI does) *)
      List.iter (fun (n, f) -> if n <> "compile-gate" then f ()) experiments
