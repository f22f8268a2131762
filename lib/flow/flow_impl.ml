(** End-to-end compilation flows — the two paths the paper compares —
    plus co-simulation and comparison reporting.

    {b Flow A (direct IR, the paper's proposal)}:
    mhir → canonicalize → directive-free modern LLVM lowering → LLVM
    cleanup pipeline → apply-directives → {e adaptor} → HLS backend.

    {b Flow B (HLS C++ baseline, ScaleHLS-style)}:
    mhir → canonicalize → HLS C++ emission → mini-C front-end (Vitis
    Clang analogue) → same LLVM cleanup pipeline → HLS backend.

    Co-simulation runs three oracles on identical inputs — the mhir
    interpreter, Flow A's LLVM IR and Flow B's LLVM IR — and checks all
    outputs against the kernel's plain-OCaml reference. *)

module K = Workloads.Kernels

type flow_kind = Direct_ir | Hls_cpp

let flow_name = function Direct_ir -> "direct-ir" | Hls_cpp -> "hls-cpp"

let flow_names =
  [ ("direct", Direct_ir); ("direct-ir", Direct_ir);
    ("cpp", Hls_cpp); ("hls-cpp", Hls_cpp) ]

let flow_of_name s = List.assoc_opt s flow_names

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
    [opt] run). *)
let llvm_cleanup ?am ?trace m =
  fst (Llvmir.Pass.run_pipeline ?trace ?am Llvmir.Pass.default_pipeline m)

(** Report one flow stage that started at [t0]; [sizes ()] is the IR
    size entering and leaving it.  Under the null hook no event is
    built and [sizes], a module walk, is not called. *)
let stage_event (trace : Support.Tracing.hook) ~stage ~pass ~t0 sizes =
  if trace != Support.Tracing.null then begin
    let seconds = Support.Tracing.now () -. t0 in
    let before, after = sizes () in
    trace (Support.Tracing.event ~stage ~pass ~seconds ~before ~after)
  end

(** Flow A's directive-free prefix: canonicalize, lower with a loop id
    on each latch in place of the directives, verify, clean up. *)
let direct_ir_prefix ?(trace = Support.Tracing.null)
    ?(am = Llvmir.Analysis.create ~trace ()) (m : Mhir.Ir.modul) :
    Llvmir.Lmodule.t =
  let m = Mhir.Canonicalize.run m in
  let t0 = Support.Tracing.now () in
  let lm = Lowering.Lower.directive_free ~style:Lowering.Lower.modern m in
  Llvmir.Lverifier.verify_module ~am lm;
  stage_event trace ~stage:"lower" ~pass:"lower-modern" ~t0 (fun () ->
      (0, Llvmir.Lmodule.instr_count lm));
  llvm_cleanup ~am ~trace lm

(** Flow A front-end: mhir to HLS-ready LLVM IR through the adaptor.
    Returns [Error diagnostics] when the (strict) adaptor pipeline
    leaves blocking compatibility issues; no exception escapes.  One
    analysis manager ([?am], or a fresh one) serves the verifier, the
    cleanup pipeline and the adaptor. *)
let direct_ir_frontend ?(pipeline = Adaptor.Pipeline.default)
    ?(trace = Support.Tracing.null) ?(am = Llvmir.Analysis.create ~trace ())
    ?(prefix = direct_ir_prefix ~trace ~am) (m : Mhir.Ir.modul) :
    (Llvmir.Lmodule.t * Adaptor.report * float, Support.Diag.t list)
    Stdlib.result =
  let t0 = Support.Tracing.now () in
  Mhir.Verifier.verify_module m;
  let lm = prefix m in
  let ta = Support.Tracing.now () in
  (* [prefix] lowered [m] canonicalized; canonicalization keeps every
     loop op, in order and with its attributes, so [m] numbers its
     loops as the lowered module does *)
  let lm = Lowering.Apply_directives.run m lm in
  stage_event trace ~stage:"lower" ~pass:"apply-directives" ~t0:ta (fun () ->
      let n = Llvmir.Lmodule.instr_count lm in
      (n, n));
  match Adaptor.run ~pipeline ~trace ~am lm with
  | Ok (lm, report) -> Ok (lm, report, Support.Tracing.now () -. t0)
  | Error ds -> Error ds

(** Exception-raising convenience for process boundaries (CLI, bench):
    raises {!Support.Diag.Failed} where {!direct_ir_frontend} returns
    [Error]. *)
let direct_ir_frontend_exn (m : Mhir.Ir.modul) :
    Llvmir.Lmodule.t * Adaptor.report * float =
  match direct_ir_frontend m with
  | Ok x -> x
  | Error ds -> raise (Support.Diag.Failed ds)

(** Lint a kernel: run Flow A's front-end without the strict gate and
    hand the adapted IR to the {!Hls_backend.Lint} rule registry.
    Compat leftovers surface as accumulated HLS10x diagnostics instead
    of an exception. *)
let lint_kernel ?(directives = K.pipelined) ?only ?(werror = false) ?pipeline
    (kernel : K.kernel) : Support.Diag.t list =
  let m = kernel.K.build directives in
  let pipeline =
    match pipeline with
    | Some p -> Adaptor.Pipeline.relaxed p
    | None ->
        Adaptor.Pipeline.(
          default |> with_top (Some kernel.K.kname) |> relaxed)
  in
  let am = Llvmir.Analysis.create () in
  match direct_ir_frontend ~pipeline ~am m with
  | Ok (lm, _, _) ->
      Hls_backend.Lint.run ?only ~werror ~top:kernel.K.kname ~am lm
  | Error ds -> ds (* unreachable: the pipeline is non-strict *)

(** Flow B front-end: mhir to HLS-ready LLVM IR through C++ text, with
    one analysis manager for the verifier and the cleanup pipeline. *)
let hls_cpp_frontend ?(trace = Support.Tracing.null)
    ?(am = Llvmir.Analysis.create ~trace ()) (m : Mhir.Ir.modul) :
    Llvmir.Lmodule.t * string * float =
  let t0 = Support.Tracing.now () in
  Mhir.Verifier.verify_module m;
  let m = Mhir.Canonicalize.run m in
  let te0 = Support.Tracing.now () in
  let cpp = Hlscpp.Emit.emit_module m in
  let lm = Hlscpp.Ccodegen.compile cpp in
  Llvmir.Lverifier.verify_module ~am lm;
  stage_event trace ~stage:"hls-cpp" ~pass:"emit-and-parse" ~t0:te0 (fun () ->
      (0, Llvmir.Lmodule.instr_count lm));
  let lm = llvm_cleanup ~am ~trace lm in
  (lm, cpp, Support.Tracing.now () -. t0)

(** Run one flow on a kernel and synthesize under the chosen
    scheduling discipline.  [Error diagnostics] when the strict
    adaptor gate blocks (direct-IR flow only).  The job has one
    analysis manager, reporting to [trace]: every stage from the first
    verifier run to the estimator reuses what an earlier stage built. *)
let run ?(directives = K.pipelined) ?pipeline ?clock_ns
    ?(sched = Hls_backend.Backend.Static) ?(trace = Support.Tracing.null)
    ?prefix (kernel : K.kernel) (kind : flow_kind) :
    (result, Support.Diag.t list) Stdlib.result =
  let m = kernel.K.build directives in
  let am = Llvmir.Analysis.create ~trace () in
  let synthesize lm =
    let t0 = Support.Tracing.now () in
    let hls =
      Hls_backend.Backend.synthesize ?clock_ns ~sched ~am ~top:kernel.K.kname
        lm
    in
    stage_event trace ~stage:"hls"
      ~pass:("estimate-" ^ Hls_backend.Backend.sched_name sched)
      ~t0 (fun () ->
        let n = Llvmir.Lmodule.instr_count lm in
        (n, n));
    hls
  in
  match kind with
  | Direct_ir -> (
      match direct_ir_frontend ?pipeline ~am ~trace ?prefix m with
      | Error ds -> Error ds
      | Ok (lm, report, seconds) ->
          Ok
            {
              kernel = kernel.K.kname;
              kind;
              sched;
              llvm = lm;
              hls = synthesize lm;
              seconds;
              cpp_source = None;
              adaptor_report = Some report;
            })
  | Hls_cpp ->
      let lm, cpp, seconds = hls_cpp_frontend ~am ~trace m in
      Ok
        {
          kernel = kernel.K.kname;
          kind;
          sched;
          llvm = lm;
          hls = synthesize lm;
          seconds;
          cpp_source = Some cpp;
          adaptor_report = None;
        }

(** Exception-raising convenience for process boundaries: raises
    {!Support.Diag.Failed} where {!run} returns [Error]. *)
let run_exn ?directives ?pipeline ?clock_ns ?sched ?trace (kernel : K.kernel)
    (kind : flow_kind) : result =
  match run ?directives ?pipeline ?clock_ns ?sched ?trace kernel kind with
  | Ok r -> r
  | Error ds -> raise (Support.Diag.Failed ds)

(* ------------------------------------------------------------------ *)
(* Co-simulation                                                      *)
(* ------------------------------------------------------------------ *)

type cosim_outcome = {
  ok : bool;
  max_abs_error : float;
  details : string list;
}

let flat_size shape = List.fold_left ( * ) 1 shape

(** Deterministic input data for argument [idx] of a kernel. *)
let input_data (kernel : K.kernel) idx =
  let _, shape = List.nth kernel.K.args idx in
  match Mhir.Interp.random_fbuf ~seed:(idx + 7) shape with
  | Mhir.Interp.Buf b -> Array.copy b.Mhir.Interp.fdata
  | _ -> assert false

(** Run the plain-OCaml reference on fresh inputs; returns all arrays
    (outputs updated in place). *)
let run_reference (kernel : K.kernel) : float array list =
  let arrays = List.mapi (fun i _ -> input_data kernel i) kernel.K.args in
  kernel.K.reference arrays;
  arrays

(** Run the mhir interpreter on fresh inputs. *)
let run_mhir (kernel : K.kernel) ~(directives : K.directives) :
    float array list =
  let m = kernel.K.build directives in
  let bufs =
    List.mapi
      (fun i (_, shape) ->
        let data = input_data kernel i in
        let b =
          Mhir.Interp.alloc_buffer (Array.of_list shape) Mhir.Types.F32
        in
        Array.blit data 0 b.Mhir.Interp.fdata 0 (Array.length data);
        Mhir.Interp.Buf b)
      kernel.K.args
  in
  ignore (Mhir.Interp.run_func m kernel.K.kname bufs);
  List.map
    (function
      | Mhir.Interp.Buf b -> Array.copy b.Mhir.Interp.fdata
      | _ -> assert false)
    bufs

(** Run an LLVM module (either flow's output) on fresh inputs. *)
let run_llvm (kernel : K.kernel) (lm : Llvmir.Lmodule.t) : float array list =
  let st = Llvmir.Linterp.create lm in
  let addrs =
    List.mapi
      (fun i (_, shape) ->
        let addr = Llvmir.Linterp.alloc_floats st (flat_size shape) in
        Llvmir.Linterp.write_floats st addr (input_data kernel i);
        addr)
      kernel.K.args
  in
  ignore
    (Llvmir.Linterp.run st kernel.K.kname
       (List.map (fun a -> Llvmir.Linterp.RPtr a) addrs));
  List.map2
    (fun addr (_, shape) -> Llvmir.Linterp.read_floats st addr (flat_size shape))
    addrs kernel.K.args

(** Compare every output argument of [got] against [want]. *)
let compare_outputs (kernel : K.kernel) ~(what : string)
    (want : float array list) (got : float array list) :
    float * string list =
  let max_err = ref 0.0 in
  let issues = ref [] in
  List.iteri
    (fun i (name, _) ->
      if List.mem name kernel.K.outputs then begin
        let w = List.nth want i and g = List.nth got i in
        Array.iteri
          (fun k wv ->
            let e = Float.abs (wv -. g.(k)) in
            let rel = e /. Float.max 1.0 (Float.abs wv) in
            if rel > !max_err then max_err := rel;
            if rel > 1e-4 && List.length !issues < 5 then
              issues :=
                Printf.sprintf "%s: %s[%d] = %g, expected %g" what name k
                  g.(k) wv
                :: !issues)
          w
      end)
    kernel.K.args;
  (!max_err, List.rev !issues)

(** Full three-way co-simulation of a kernel under given directives. *)
let cosim ?(directives = K.pipelined) (kernel : K.kernel) : cosim_outcome =
  let reference = run_reference kernel in
  let mhir_out = run_mhir kernel ~directives in
  let m = kernel.K.build directives in
  let direct, _, _ = direct_ir_frontend_exn m in
  let cpp, _, _ = hls_cpp_frontend m in
  let direct_out = run_llvm kernel direct in
  let cpp_out = run_llvm kernel cpp in
  let e1, i1 = compare_outputs kernel ~what:"mhir" reference mhir_out in
  let e2, i2 = compare_outputs kernel ~what:"direct-ir" reference direct_out in
  let e3, i3 = compare_outputs kernel ~what:"hls-cpp" reference cpp_out in
  let details = i1 @ i2 @ i3 in
  {
    ok = details = [];
    max_abs_error = List.fold_left Float.max 0.0 [ e1; e2; e3 ];
    details;
  }

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

(** The paper's flow comparison, generalized to a grid: one result per
    scheduling discipline × frontend, disciplines in
    {!Hls_backend.Backend.all_scheds} order, direct-IR before HLS C++
    within each. *)
let compare_flows ?(directives = K.pipelined) ?clock_ns (kernel : K.kernel) :
    result list =
  List.concat_map
    (fun sched ->
      List.map
        (fun kind -> run_exn ~directives ?clock_ns ~sched kernel kind)
        [ Direct_ir; Hls_cpp ])
    Hls_backend.Backend.all_scheds

let latency_ratio (cells : result list) =
  let latency kind =
    (List.find
       (fun r -> r.kind = kind && r.sched = Hls_backend.Backend.Static)
       cells)
      .hls
      .Hls_backend.Estimate.latency
  in
  float_of_int (latency Hls_cpp) /. float_of_int (max 1 (latency Direct_ir))
