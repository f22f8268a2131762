(** Tests for the adaptor (the paper's core contribution): each
    legalization pass in isolation, the full pipeline, the compat
    checker, and the ablations. *)

open Llvmir
module A = Adaptor

let parse text =
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  m

let gemm_modern () =
  let m =
    (Workloads.Kernels.gemm ()).Workloads.Kernels.build
      Workloads.Kernels.pipelined
  in
  let lm = Lowering.Lower.lower_module m in
  fst (Pass.run_pipeline Pass.default_pipeline lm)

(* ------------------------------------------------------------------ *)
(* Pass 1: intrinsic legalization                                     *)
(* ------------------------------------------------------------------ *)

let test_legalize_smax () =
  let m =
    parse
      {|declare i64 @llvm.smax.i64(i64, i64)
define i64 @f(i64 %a, i64 %b) {
entry:
  %m = call i64 @llvm.smax.i64(i64 %a, i64 %b)
  ret i64 %m
}|}
  in
  let m' =
    A.Legalize_intrinsics.run ~stats:(A.Legalize_intrinsics.fresh_stats ())
      ~am:(Analysis.create ()) m
  in
  Lverifier.verify_module m';
  Alcotest.(check bool) "no llvm.* calls remain" true
    (A.Compat.check m'
     |> List.for_all (fun i ->
            match i.A.Compat.kind with
            | A.Compat.Modern_intrinsic _ -> false
            | _ -> true));
  let run mm a b =
    let st = Linterp.create mm in
    match Linterp.run st "f" [ Linterp.RInt a; Linterp.RInt b ] with
    | Some (Linterp.RInt v) -> v
    | _ -> -1
  in
  Alcotest.(check int) "smax(3,9)" 9 (run m' 3 9);
  Alcotest.(check int) "smax(9,3)" 9 (run m' 9 3);
  Alcotest.(check int) "smax(-5,-9)" (-5) (run m' (-5) (-9))

let test_legalize_fmuladd () =
  let m =
    parse
      {|declare float @llvm.fmuladd.f32(float, float, float)
define float @f(float %a) {
entry:
  %m = call float @llvm.fmuladd.f32(float %a, float 3.0, float 4.0)
  ret float %m
}|}
  in
  let stats = A.Legalize_intrinsics.fresh_stats () in
  let m' = A.Legalize_intrinsics.run ~stats ~am:(Analysis.create ()) m in
  Alcotest.(check int) "one fmuladd split" 1 stats.A.Legalize_intrinsics.fmuladd;
  let st = Linterp.create m' in
  (match Linterp.run st "f" [ Linterp.RFloat 2.0 ] with
  | Some (Linterp.RFloat v) -> Alcotest.(check (float 1e-9)) "2*3+4" 10.0 v
  | _ -> Alcotest.fail "bad result");
  Alcotest.(check bool) "declaration pruned" true
    (Lmodule.find_decl m' "llvm.fmuladd.f32" = None)

let test_legalize_drops_lifetime_assume () =
  let m =
    parse
      {|declare void @llvm.lifetime.start.p0(i64, float*)
declare void @llvm.assume(i1)
define void @f() {
entry:
  %buf = alloca [4 x float]
  %p = bitcast [4 x float]* %buf to float*
  call void @llvm.lifetime.start.p0(i64 16, float* %p)
  %c = icmp sgt i64 4, 0
  call void @llvm.assume(i1 %c)
  ret void
}|}
  in
  let stats = A.Legalize_intrinsics.fresh_stats () in
  let m' = A.Legalize_intrinsics.run ~stats ~am:(Analysis.create ()) m in
  Alcotest.(check int) "two markers dropped" 2 stats.A.Legalize_intrinsics.dropped;
  let calls =
    List.fold_left
      (fun acc f ->
        Lmodule.fold_insts
          (fun n (i : Linstr.t) ->
            match i.Linstr.op with Linstr.Call _ -> n + 1 | _ -> n)
          acc f)
      0 m'.Lmodule.funcs
  in
  Alcotest.(check int) "no calls remain" 0 calls

let test_legalize_freeze () =
  let m =
    parse
      {|define i64 @f(i64 %x) {
entry:
  %fz = freeze i64 %x
  %r = add i64 %fz, 1
  ret i64 %r
}|}
  in
  let m' =
    A.Legalize_intrinsics.run ~stats:(A.Legalize_intrinsics.fresh_stats ())
      ~am:(Analysis.create ()) m
  in
  Alcotest.(check bool) "freeze forwarded" true
    (List.for_all
       (fun i ->
         match i.A.Compat.kind with A.Compat.Freeze_inst -> false | _ -> true)
       (A.Compat.check m'));
  let st = Linterp.create m' in
  (match Linterp.run st "f" [ Linterp.RInt 41 ] with
  | Some (Linterp.RInt 42) -> ()
  | _ -> Alcotest.fail "freeze semantics broken")

(* ------------------------------------------------------------------ *)
(* Pass 2: descriptor elimination                                     *)
(* ------------------------------------------------------------------ *)

let test_descriptors_detected_and_removed () =
  let m = gemm_modern () in
  let before = A.Compat.check m in
  Alcotest.(check bool) "descriptors present before" true
    (List.exists
       (fun i -> i.A.Compat.kind = A.Compat.Memref_descriptor)
       before);
  let stats = A.Eliminate_descriptors.fresh_stats () in
  let m' =
    A.Eliminate_descriptors.run ~stats ~delinearize:true
      ~am:(Analysis.create ()) m
  in
  Lverifier.verify_module m';
  Alcotest.(check int) "three descriptors eliminated" 3
    stats.A.Eliminate_descriptors.descriptors;
  Alcotest.(check bool) "all GEPs delinearized" true
    (stats.A.Eliminate_descriptors.delinearized > 0
    && stats.A.Eliminate_descriptors.flat_fallback = 0);
  let after = A.Compat.check m' in
  Alcotest.(check bool) "no descriptors after" true
    (List.for_all
       (fun i -> i.A.Compat.kind <> A.Compat.Memref_descriptor)
       after)

let test_descriptor_elimination_semantics () =
  let k = Workloads.Kernels.gemm () in
  let m = gemm_modern () in
  let m' =
    A.Eliminate_descriptors.run
      ~stats:(A.Eliminate_descriptors.fresh_stats ())
      ~delinearize:true ~am:(Analysis.create ()) m
  in
  let out1 = Flow.run_llvm k m in
  let out2 = Flow.run_llvm k m' in
  List.iteri
    (fun i (a, b) ->
      Array.iteri
        (fun j av ->
          if Float.abs (av -. b.(j)) > 1e-9 then
            Alcotest.failf "gemm diverges at arg %d[%d]" i j)
        a)
    (List.combine out1 out2)

let test_flat_fallback_mode () =
  let m = gemm_modern () in
  let stats = A.Eliminate_descriptors.fresh_stats () in
  let m' =
    A.Eliminate_descriptors.run ~stats ~delinearize:false
      ~am:(Analysis.create ()) m
  in
  Lverifier.verify_module m';
  Alcotest.(check int) "no GEP delinearized" 0
    stats.A.Eliminate_descriptors.delinearized;
  Alcotest.(check bool) "flat fallbacks used" true
    (stats.A.Eliminate_descriptors.flat_fallback > 0);
  (* semantics must still hold *)
  let k = Workloads.Kernels.gemm () in
  let out1 = Flow.run_llvm k m in
  let out2 = Flow.run_llvm k m' in
  List.iter2
    (fun a b ->
      Array.iteri
        (fun j av ->
          if Float.abs (av -. b.(j)) > 1e-9 then Alcotest.fail "flat view diverges")
        a)
    out1 out2

(* ------------------------------------------------------------------ *)
(* Pass 3: typed pointers                                             *)
(* ------------------------------------------------------------------ *)

let test_typed_pointer_reconstruction () =
  let m =
    parse
      {|define float @f(ptr %p) {
entry:
  %a = getelementptr [8 x float], ptr %p, i64 0, i64 3
  %v = load float, ptr %a
  ret float %v
}|}
  in
  let m' = A.Typed_pointers.run ~stats:(A.Typed_pointers.fresh_stats ()) m in
  Lverifier.verify_module m';
  let f = Lmodule.find_func_exn m' "f" in
  let p = List.hd f.Lmodule.params in
  Alcotest.(check string) "parameter typed" "[8 x float]*"
    (Ltype.to_string p.Lmodule.pty);
  Alcotest.(check bool) "no opaque pointers remain" true
    (List.for_all
       (fun i -> i.A.Compat.kind <> A.Compat.Opaque_pointer)
       (A.Compat.check m'))

let test_typed_pointers_default_i8 () =
  let m =
    parse
      {|define void @f(ptr %p) {
entry:
  ret void
}|}
  in
  let stats = A.Typed_pointers.fresh_stats () in
  let m' = A.Typed_pointers.run ~stats m in
  let f = Lmodule.find_func_exn m' "f" in
  Alcotest.(check string) "unconstrained pointer becomes i8*" "i8*"
    (Ltype.to_string (List.hd f.Lmodule.params).Lmodule.pty);
  Alcotest.(check int) "counted as defaulted" 1 stats.A.Typed_pointers.defaulted

(* ------------------------------------------------------------------ *)
(* Pass 4: GEP canonicalization                                       *)
(* ------------------------------------------------------------------ *)

let test_gep_merge () =
  let m =
    parse
      {|define float @f([4 x [8 x float]]* %p) {
entry:
  %row = getelementptr [4 x [8 x float]], [4 x [8 x float]]* %p, i64 0, i64 2
  %elt = getelementptr [8 x float], [8 x float]* %row, i64 0, i64 5
  %v = load float, float* %elt
  ret float %v
}|}
  in
  let stats = A.Canonicalize_geps.fresh_stats () in
  let m' = A.Canonicalize_geps.run ~stats ~am:(Analysis.create ()) m in
  Lverifier.verify_module m';
  Alcotest.(check int) "one merge happened" 1 stats.A.Canonicalize_geps.merged;
  let geps =
    List.fold_left
      (fun acc f ->
        Lmodule.fold_insts
          (fun n (i : Linstr.t) ->
            match i.Linstr.op with Linstr.Gep _ -> n + 1 | _ -> n)
          acc f)
      0 m'.Lmodule.funcs
  in
  Alcotest.(check int) "one gep remains" 1 geps;
  (* semantics *)
  let st = Linterp.create m' in
  let addr = Linterp.alloc_floats st 32 in
  Linterp.write_floats st addr (Array.init 32 float_of_int);
  (match Linterp.run st "f" [ Linterp.RPtr addr ] with
  | Some (Linterp.RFloat v) -> Alcotest.(check (float 1e-9)) "p[2][5]" 21.0 v
  | _ -> Alcotest.fail "bad result")

let test_gep_index_widening () =
  let m =
    parse
      {|define float @f([8 x float]* %p, i32 %i) {
entry:
  %a = getelementptr [8 x float], [8 x float]* %p, i64 0, i32 %i
  %v = load float, float* %a
  ret float %v
}|}
  in
  let stats = A.Canonicalize_geps.fresh_stats () in
  let m' = A.Canonicalize_geps.run ~stats ~am:(Analysis.create ()) m in
  Lverifier.verify_module m';
  Alcotest.(check int) "index widened" 1 stats.A.Canonicalize_geps.widened

(* ------------------------------------------------------------------ *)
(* Pass 5/6: metadata translation + interfaces                        *)
(* ------------------------------------------------------------------ *)

let test_metadata_translation () =
  let m =
    parse
      {|define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %header ]
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, 8
  br i1 %c, label %header, label %exit !md{llvm.loop.pipeline.ii = 2, llvm.loop.tripcount = 8}
exit:
  ret void
}|}
  in
  let stats = A.Translate_metadata.fresh_stats () in
  let m' = A.Translate_metadata.run ~stats m in
  Lverifier.verify_module m';
  Alcotest.(check int) "one loop translated" 1 stats.A.Translate_metadata.loops;
  Alcotest.(check int) "two markers" 2 stats.A.Translate_metadata.markers;
  let text = Lprinter.module_to_string m' in
  Alcotest.(check bool) "SpecPipeline emitted" true
    (Str_find.contains text "_ssdm_op_SpecPipeline");
  Alcotest.(check bool) "metadata stripped" true
    (not (Str_find.contains text "llvm.loop"))

let test_interface_lowering () =
  let m =
    parse
      {|define void @k(float* %A, i64 %n) attrs(hls.partition.A = "cyclic:4:1") {
entry:
  ret void
}|}
  in
  let m' = A.Interfaces.run ~stats:(A.Interfaces.fresh_stats ()) ~top:"k" m in
  let f = Lmodule.find_func_exn m' "k" in
  let a = List.hd f.Lmodule.params in
  Alcotest.(check (option string)) "bram interface" (Some "bram")
    (List.assoc_opt "fpga.interface" a.Lmodule.pattrs);
  Alcotest.(check (option string)) "partition factor" (Some "4")
    (List.assoc_opt "fpga.partition.factor" a.Lmodule.pattrs);
  let n = List.nth f.Lmodule.params 1 in
  Alcotest.(check (option string)) "scalar param untouched" None
    (List.assoc_opt "fpga.interface" n.Lmodule.pattrs);
  Alcotest.(check bool) "fattr consumed" true
    (not (List.mem_assoc "hls.partition.A" f.Lmodule.fattrs))

(* ------------------------------------------------------------------ *)
(* Full pipeline                                                      *)
(* ------------------------------------------------------------------ *)

let test_full_adaptor_on_all_kernels () =
  List.iter
    (fun k ->
      let m = k.Workloads.Kernels.build Workloads.Kernels.pipelined in
      let lm = Lowering.Lower.lower_module m in
      let lm = fst (Pass.run_pipeline Pass.default_pipeline lm) in
      let before = A.Compat.check lm in
      Alcotest.(check bool)
        (k.Workloads.Kernels.kname ^ " has issues before")
        true (before <> []);
      let lm', report = A.run_exn lm in
      Alcotest.(check int)
        (k.Workloads.Kernels.kname ^ " has no issues after")
        0
        (List.length report.A.issues_after);
      Alcotest.(check bool)
        (k.Workloads.Kernels.kname ^ " accepted by the HLS front door")
        true
        (Hls_backend.Adaptor_markers.legality_errors lm' = []))
    (Workloads.Kernels.all ())

let test_adaptor_differential_all_kernels () =
  List.iter
    (fun k ->
      let m = k.Workloads.Kernels.build Workloads.Kernels.pipelined in
      let lm = Lowering.Lower.lower_module m in
      let lm_opt = fst (Pass.run_pipeline Pass.default_pipeline lm) in
      let lm', _ = A.run_exn lm_opt in
      let out1 = Flow.run_llvm k lm_opt in
      let out2 = Flow.run_llvm k lm' in
      List.iteri
        (fun i (a, b) ->
          Array.iteri
            (fun j av ->
              if Float.abs (av -. b.(j)) > 1e-9 then
                Alcotest.failf "%s: adaptor changed semantics at arg %d[%d]"
                  k.Workloads.Kernels.kname i j)
            a)
        (List.combine out1 out2))
    (Workloads.Kernels.all ())

let test_strict_mode_rejects_incomplete () =
  let m = gemm_modern () in
  (* descriptor elimination disabled but strict: must raise, carrying
     the complete accumulated diagnostic list *)
  let pipeline =
    match A.Pipeline.disable "eliminate-descriptors" A.Pipeline.default with
    | Ok p -> p
    | Error d -> Alcotest.fail (Support.Diag.to_string d)
  in
  match A.run ~pipeline m with
  | Ok _ -> Alcotest.fail "strict + incomplete must fail"
  | Error ds ->
      Alcotest.(check bool) "carries all findings" true (List.length ds > 1);
      Alcotest.(check bool) "has error severity" true (Support.Diag.errors ds > 0)

let test_compat_summary () =
  let m = gemm_modern () in
  let issues = A.Compat.check m in
  let summary = A.Compat.summarize issues in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 summary in
  Alcotest.(check int) "summary counts all issues" (List.length issues) total;
  Alcotest.(check bool) "opaque-pointer category present" true
    (List.mem_assoc "opaque-pointer" summary)

(* With every pass disabled the pass list is empty, and the adaptor
   still verifies what it returns. *)
let test_verifies_with_no_passes () =
  let m =
    Lparser.parse_module
      {|define i64 @f() {
entry:
  %a = add i64 %b, 1
  %b = add i64 1, 2
  ret i64 %a
}|}
  in
  let pipeline =
    {
      A.Pipeline.default with
      A.Pipeline.passes =
        List.map
          (fun p -> { p with A.Pipeline.enabled = false })
          A.Pipeline.default.A.Pipeline.passes;
      strict = false;
    }
  in
  match A.run ~pipeline m with
  | _ -> Alcotest.fail "an invalid module passed an all-disabled adaptor"
  | exception Support.Err.Compile_error _ -> ()

(* The report is a function of the input: per-pass wall times are the
   run's trace events, not report text, so every run of one module
   renders the same bytes.  The module is large enough that each pass
   takes milliseconds. *)
let test_report_identical_across_runs () =
  let lm =
    fst
      (Pass.run_pipeline Pass.default_pipeline
         (Mhls_driver.Synth.many_kernels ~n:400))
  in
  let render () =
    match A.run ~pipeline:(A.Pipeline.relaxed A.Pipeline.default) lm with
    | Ok (_, r) -> A.report_to_string r
    | Error _ -> Alcotest.fail "relaxed adaptor run failed"
  in
  let first = render () in
  List.iter
    (fun i ->
      Alcotest.(check string) (Printf.sprintf "run %d" i) first (render ()))
    [ 2; 3 ]

(* canonicalize-geps changes nothing in gemm, so its cleanup DCE reads
   the function index the pass itself got from the job's manager: the
   queries between the typed-pointers and canonicalize-geps events
   include a hit. *)
let test_canonicalize_geps_reuses_index () =
  let lm = gemm_modern () in
  let trace, events = Support.Tracing.collector () in
  let am = Analysis.create ~trace () in
  (match A.run ~trace ~am lm with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "adaptor rejected gemm");
  let rec after_typed_pointers = function
    | [] -> Alcotest.fail "no typed-pointers event"
    | (e : Support.Tracing.event) :: rest ->
        if e.ev_stage = "adaptor" && e.ev_pass = "typed-pointers" then rest
        else after_typed_pointers rest
  in
  let rec queries acc = function
    | [] -> Alcotest.fail "no canonicalize-geps event"
    | (e : Support.Tracing.event) :: rest ->
        if e.ev_stage = "adaptor" then begin
          Alcotest.(check string) "next adaptor pass" "canonicalize-geps"
            e.ev_pass;
          List.rev acc
        end
        else queries (e.ev_pass :: acc) rest
  in
  let qs = queries [] (after_typed_pointers (events ())) in
  Alcotest.(check bool)
    ("canonicalize-geps queries include a findex hit: "
    ^ String.concat ", " qs)
    true
    (List.mem "findex:hit" qs)

let suite =
  [
    Alcotest.test_case "legalize smax" `Quick test_legalize_smax;
    Alcotest.test_case "legalize fmuladd" `Quick test_legalize_fmuladd;
    Alcotest.test_case "legalize drops lifetime/assume" `Quick test_legalize_drops_lifetime_assume;
    Alcotest.test_case "legalize freeze" `Quick test_legalize_freeze;
    Alcotest.test_case "descriptors removed" `Quick test_descriptors_detected_and_removed;
    Alcotest.test_case "descriptor elimination semantics" `Quick test_descriptor_elimination_semantics;
    Alcotest.test_case "flat fallback mode" `Quick test_flat_fallback_mode;
    Alcotest.test_case "typed pointer reconstruction" `Quick test_typed_pointer_reconstruction;
    Alcotest.test_case "typed pointers default i8*" `Quick test_typed_pointers_default_i8;
    Alcotest.test_case "gep merge" `Quick test_gep_merge;
    Alcotest.test_case "gep index widening" `Quick test_gep_index_widening;
    Alcotest.test_case "gep cleanup reuses the job's index" `Quick
      test_canonicalize_geps_reuses_index;
    Alcotest.test_case "metadata translation" `Quick test_metadata_translation;
    Alcotest.test_case "interface lowering" `Quick test_interface_lowering;
    Alcotest.test_case "full adaptor (all kernels)" `Quick test_full_adaptor_on_all_kernels;
    Alcotest.test_case "adaptor differential (all kernels)" `Quick test_adaptor_differential_all_kernels;
    Alcotest.test_case "strict mode" `Quick test_strict_mode_rejects_incomplete;
    Alcotest.test_case "compat summary" `Quick test_compat_summary;
    Alcotest.test_case "report identical across runs" `Quick
      test_report_identical_across_runs;
    Alcotest.test_case "verifies with every pass disabled" `Quick
      test_verifies_with_no_passes;
  ]
