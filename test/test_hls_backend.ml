(** Tests for the HLS backend: legality gate, directive extraction,
    scheduling behaviour (chaining, ports, recurrences), latency
    formulas, and resource estimation. *)

open Llvmir
module B = Hls_backend.Backend
module E = Hls_backend.Estimate
module D = Hls_backend.Directives

let parse text =
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  m

let synth ?clock_ns ~top text = B.synthesize ?clock_ns ~top (parse text)

(** A pipelined counted loop over [n] iterations whose body is given as
    IR text (may use %i); markers control pipeline/tripcount. *)
let loop_fn ?(pipeline = false) ~n body =
  Printf.sprintf
    {|%s
declare void @_ssdm_op_SpecLoopTripCount(i64)
define void @f(float* %%p attrs(fpga.interface = "bram")) {
entry:
  br label %%header
header:
  %%i = phi i64 [ 0, %%entry ], [ %%i.next, %%latch ]
  call void @_ssdm_op_SpecLoopTripCount(i64 %d)
  %s
  %%c = icmp slt i64 %%i, %d
  br i1 %%c, label %%body, label %%exit
body:
%s
  br label %%latch
latch:
  %%i.next = add i64 %%i, 1
  br label %%header
exit:
  ret void
}|}
    (if pipeline then "declare void @_ssdm_op_SpecPipeline(i32)" else "")
    n
    (if pipeline then "call void @_ssdm_op_SpecPipeline(i32 1)" else "")
    n body

(* ------------------------------------------------------------------ *)
(* Legality                                                           *)
(* ------------------------------------------------------------------ *)

let test_rejects_modern_ir () =
  let m =
    (Workloads.Kernels.gemm ()).Workloads.Kernels.build
      Workloads.Kernels.no_directives
    |> Lowering.Lower.lower_module
  in
  Alcotest.(check bool) "modern IR rejected" true
    (try
       ignore (B.synthesize ~top:"gemm" m);
       false
     with E.Rejected _ -> true)

let test_rejection_reasons_are_specific () =
  let m =
    (Workloads.Kernels.gemm ()).Workloads.Kernels.build
      Workloads.Kernels.no_directives
    |> Lowering.Lower.lower_module
  in
  let errs = Hls_backend.Adaptor_markers.legality_errors m in
  Alcotest.(check bool) "mentions opaque pointers" true
    (List.exists (fun e -> Str_find.contains e "opaque") errs);
  Alcotest.(check bool) "mentions unsupported intrinsics or aggregates" true
    (List.exists
       (fun e ->
         Str_find.contains e "intrinsic" || Str_find.contains e "aggregate")
       errs)

let test_accepts_adapted_ir () =
  List.iter
    (fun k ->
      let lm, _, _ =
        Flow_util.frontend_exn
          (k.Workloads.Kernels.build Workloads.Kernels.pipelined)
      in
      let r = B.synthesize ~top:k.Workloads.Kernels.kname lm in
      Alcotest.(check bool)
        (k.Workloads.Kernels.kname ^ " latency positive")
        true (r.E.latency > 0))
    (Workloads.Kernels.all ())

(* ------------------------------------------------------------------ *)
(* Directive extraction                                               *)
(* ------------------------------------------------------------------ *)

let test_directive_extraction () =
  let m =
    parse
      (loop_fn ~pipeline:true ~n:16
         "  %v = getelementptr float, float* %p, i64 %i\n  %x = load float, float* %v\n  store float %x, float* %v")
  in
  let f = Lmodule.find_func_exn m "f" in
  let cfg = Cfg.build f in
  let li = Loop_info.compute (Dominance.compute cfg) in
  Alcotest.(check int) "one loop" 1 (Array.length li.Loop_info.loops);
  let d = D.loop_directives cfg li 0 in
  Alcotest.(check (option int)) "pipeline II" (Some 1) d.D.pipeline_ii;
  Alcotest.(check (option int)) "tripcount" (Some 16) d.D.tripcount

let test_array_info () =
  let m =
    parse
      {|define void @f([4 x [8 x float]]* %A attrs(fpga.interface = "bram", fpga.partition.kind = "cyclic", fpga.partition.factor = "4", fpga.partition.dim = "2")) {
entry:
  ret void
}|}
  in
  let f = Lmodule.find_func_exn m "f" in
  match D.arrays f with
  | [ a ] ->
      Alcotest.(check (list int)) "dims" [ 4; 8 ] a.D.dims;
      Alcotest.(check int) "elem bits" 32 a.D.elem_bits;
      Alcotest.(check int) "factor" 4 a.D.partition_factor;
      Alcotest.(check int) "ports" 8 (D.ports a)
  | _ -> Alcotest.fail "expected one array"

let test_partition_dropped_on_flat_view () =
  (* dim=2 partition on a 1-D view is ineffective *)
  let m =
    parse
      {|define void @f([32 x float]* %A attrs(fpga.partition.kind = "cyclic", fpga.partition.factor = "4", fpga.partition.dim = "2")) {
entry:
  ret void
}|}
  in
  let f = Lmodule.find_func_exn m "f" in
  match D.arrays f with
  | [ a ] -> Alcotest.(check int) "factor forced to 1" 1 a.D.partition_factor
  | _ -> Alcotest.fail "expected one array"

(* ------------------------------------------------------------------ *)
(* Scheduling / latency formulas                                      *)
(* ------------------------------------------------------------------ *)

let test_sequential_loop_formula () =
  (* body: one load (lat 2) + one store (lat 1) on the same port-limited
     array; iteration latency = 4 (addr chain), with the formula
     N*(L+1)+2 *)
  let r =
    synth ~top:"f"
      (loop_fn ~n:10
         "  %v = getelementptr float, float* %p, i64 %i\n  %x = load float, float* %v\n  %y = fadd float %x, 1.0\n  store float %y, float* %v")
  in
  let l = List.hd r.E.loops in
  Alcotest.(check int) "tripcount" 10 l.E.tripcount;
  Alcotest.(check bool) "not pipelined" false l.E.pipelined;
  Alcotest.(check int) "total = N*(L+1)+2" (10 * (l.E.iteration_latency + 1) + 2)
    l.E.total_latency

let test_pipelined_loop_formula () =
  let r =
    synth ~top:"f"
      (loop_fn ~pipeline:true ~n:10
         "  %v = getelementptr float, float* %p, i64 %i\n  %x = load float, float* %v\n  %y = fadd float %x, 1.0\n  store float %y, float* %v")
  in
  let l = List.hd r.E.loops in
  Alcotest.(check bool) "pipelined" true l.E.pipelined;
  (match l.E.achieved_ii with
  | Some ii ->
      Alcotest.(check int) "total = L + (N-1)*II + 2"
        (l.E.iteration_latency + (9 * ii) + 2)
        l.E.total_latency
  | None -> Alcotest.fail "no II");
  Alcotest.(check bool) "pipelining beats sequential" true
    (l.E.total_latency
    < 10 * (l.E.iteration_latency + 1) + 2)

let test_zero_trip_pipelined_loop () =
  (* N = 0 must not enter the pipelined formula L + (N-1)*II + 2 *)
  let text =
    loop_fn ~pipeline:true ~n:0
      "  %v = getelementptr float, float* %p, i64 %i\n  %x = load float, float* %v\n  %y = fmul float %x, %x\n  store float %y, float* %v"
  in
  List.iter
    (fun sched ->
      let name = Hls_backend.Backend.sched_name sched in
      let r = B.synthesize ~sched ~top:"f" (parse text) in
      let l = List.hd r.E.loops in
      Alcotest.(check int) (name ^ ": tripcount") 0 l.E.tripcount;
      Alcotest.(check int) (name ^ ": entry + exit") 2 l.E.total_latency;
      Alcotest.(check int) (name ^ ": function pays for the loop") 4 r.E.latency)
    Hls_backend.Backend.all_scheds

let test_recurrence_bounds_ii () =
  (* loop-carried float accumulation: II >= fadd latency (4) *)
  let text =
    {|declare void @_ssdm_op_SpecLoopTripCount(i64)
declare void @_ssdm_op_SpecPipeline(i32)
define float @f(float* %p attrs(fpga.interface = "bram")) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %acc = phi float [ 0.0, %entry ], [ %acc.next, %body ]
  call void @_ssdm_op_SpecLoopTripCount(i64 16)
  call void @_ssdm_op_SpecPipeline(i32 1)
  %c = icmp slt i64 %i, 16
  br i1 %c, label %body, label %exit
body:
  %a = getelementptr float, float* %p, i64 %i
  %v = load float, float* %a
  %acc.next = fadd float %acc, %v
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret float %acc
}|}
  in
  let r = synth ~top:"f" text in
  let l = List.hd r.E.loops in
  Alcotest.(check int) "RecMII = fadd latency" 4 l.E.rec_mii;
  Alcotest.(check (option int)) "II = 4" (Some 4) l.E.achieved_ii;
  Alcotest.(check bool) "II violation warned" true (r.E.warnings <> [])

let test_ports_bound_ii () =
  (* 4 loads per iteration from one dual-ported array: ResMII = 2 *)
  let body =
    String.concat "\n"
      (List.map
         (fun k ->
           Printf.sprintf
             "  %%a%d = getelementptr float, float* %%p, i64 %d\n  %%v%d = load float, float* %%a%d"
             k k k k)
         [ 0; 1; 2; 3 ])
    ^ "\n  %s1 = fadd float %v0, %v1\n  %s2 = fadd float %v2, %v3\n  %s3 = fadd float %s1, %s2\n  %q = getelementptr float, float* %p, i64 %i\n  store float %s3, float* %q"
  in
  let r = synth ~top:"f" (loop_fn ~pipeline:true ~n:8 body) in
  let l = List.hd r.E.loops in
  Alcotest.(check bool) "ResMII >= 2 (5 accesses / 2 ports)" true (l.E.res_mii >= 2)

let test_chaining_packs_alu_ops () =
  (* a chain of 0-latency integer adds fits in very few cycles *)
  let body =
    "  %a1 = add i64 %i, 1\n  %a2 = add i64 %a1, 2\n  %a3 = add i64 %a2, 3\n  %a4 = add i64 %a3, 4\n  %a5 = add i64 %a4, 5"
  in
  let r = synth ~top:"f" (loop_fn ~n:4 body) in
  let l = List.hd r.E.loops in
  Alcotest.(check bool) "five adds chain into <= 2 cycles" true
    (l.E.iteration_latency <= 2)

let test_chaining_respects_clock () =
  (* at a very tight clock the same chain needs more cycles *)
  let body =
    "  %a1 = add i64 %i, 1\n  %a2 = add i64 %a1, 2\n  %a3 = add i64 %a2, 3\n  %a4 = add i64 %a3, 4\n  %a5 = add i64 %a4, 5"
  in
  let slow = synth ~top:"f" (loop_fn ~n:4 body) in
  let fast =
    B.synthesize ~clock_ns:2.0 ~top:"f" (parse (loop_fn ~n:4 body))
  in
  let lat r = (List.hd r.E.loops).E.iteration_latency in
  Alcotest.(check bool) "tighter clock, more cycles" true (lat fast > lat slow)

let test_unroll_divides_trip () =
  let m =
    (Workloads.Kernels.gemm ()).Workloads.Kernels.build
      { Workloads.Kernels.pipelined with Workloads.Kernels.unroll = Some 4 }
  in
  let lm, _, _ = Flow_util.frontend_exn m in
  let r = B.synthesize ~top:"gemm" lm in
  let inner =
    List.find (fun (l : E.loop_report) -> l.E.depth = 3) r.E.loops
  in
  Alcotest.(check int) "unroll recorded" 4 inner.E.unroll;
  Alcotest.(check int) "trip stays 16 (pre-unroll)" 16 inner.E.tripcount

(* ------------------------------------------------------------------ *)
(* Resources                                                          *)
(* ------------------------------------------------------------------ *)

let test_bram_estimation () =
  let mk dims factor =
    {
      D.aname = "A";
      dims;
      elem_bits = 32;
      partition_factor = factor;
      partition_kind = (if factor > 1 then "cyclic" else "none");
      partition_dim = 1;
      local = false;
    }
  in
  (* 16x16 x 32 bits = 8192 bits -> 1 BRAM18K *)
  Alcotest.(check int) "small array 1 bram" 1 (E.bram_of_array (mk [ 16; 16 ] 1));
  (* 64x64 x 32 = 131072 bits -> 8 BRAM18K *)
  Alcotest.(check int) "big array 8 brams" 8 (E.bram_of_array (mk [ 64; 64 ] 1));
  (* partitioning multiplies banks *)
  Alcotest.(check bool) "partitioned uses >= banks" true
    (E.bram_of_array (mk [ 64; 64 ] 4) >= 8)

let test_dsp_usage_reported () =
  let lm, _, _ =
    Flow_util.frontend_exn
      ((Workloads.Kernels.gemm ()).Workloads.Kernels.build
         Workloads.Kernels.pipelined)
  in
  let r = B.synthesize ~top:"gemm" lm in
  Alcotest.(check bool) "gemm uses DSPs (fmul+fadd)" true (r.E.resources.E.dsp >= 5);
  Alcotest.(check bool) "gemm uses BRAM for 3 arrays" true (r.E.resources.E.bram >= 3)

let test_resources_grow_with_partitioning () =
  let run factor =
    let d =
      Workloads.Kernels.optimized ~factor ~parts:[ ("A", 2); ("B", 1) ] ()
    in
    let lm, _, _ =
      Flow_util.frontend_exn
        ((Workloads.Kernels.gemm ()).Workloads.Kernels.build d)
    in
    B.synthesize ~top:"gemm" lm
  in
  let r1 = run 1 and r8 = run 8 in
  Alcotest.(check bool) "more partitions, more BRAM banks" true
    (r8.E.resources.E.bram >= r1.E.resources.E.bram);
  Alcotest.(check bool) "more parallelism, more DSPs" true
    (r8.E.resources.E.dsp >= r1.E.resources.E.dsp);
  Alcotest.(check bool) "and lower latency" true (r8.E.latency < r1.E.latency)

(* ------------------------------------------------------------------ *)
(* Report rendering                                                   *)
(* ------------------------------------------------------------------ *)

let test_report_renders () =
  let lm, _, _ =
    Flow_util.frontend_exn
      ((Workloads.Kernels.gemm ()).Workloads.Kernels.build
         Workloads.Kernels.pipelined)
  in
  let r = B.synthesize ~top:"gemm" lm in
  let text = Hls_backend.Report.render r in
  Alcotest.(check bool) "has latency line" true (Str_find.contains text "Latency:");
  Alcotest.(check bool) "has resources" true (Str_find.contains text "BRAM_18K");
  Alcotest.(check bool) "lists loops" true (Str_find.contains text "loop")

let suite =
  [
    Alcotest.test_case "rejects modern IR" `Quick test_rejects_modern_ir;
    Alcotest.test_case "rejection reasons" `Quick test_rejection_reasons_are_specific;
    Alcotest.test_case "accepts adapted IR (all kernels)" `Quick test_accepts_adapted_ir;
    Alcotest.test_case "directive extraction" `Quick test_directive_extraction;
    Alcotest.test_case "array info" `Quick test_array_info;
    Alcotest.test_case "partition dropped on flat view" `Quick test_partition_dropped_on_flat_view;
    Alcotest.test_case "sequential loop formula" `Quick test_sequential_loop_formula;
    Alcotest.test_case "pipelined loop formula" `Quick test_pipelined_loop_formula;
    Alcotest.test_case "zero-trip pipelined loop" `Quick test_zero_trip_pipelined_loop;
    Alcotest.test_case "recurrence bounds II" `Quick test_recurrence_bounds_ii;
    Alcotest.test_case "ports bound II" `Quick test_ports_bound_ii;
    Alcotest.test_case "chaining packs ALU ops" `Quick test_chaining_packs_alu_ops;
    Alcotest.test_case "chaining respects clock" `Quick test_chaining_respects_clock;
    Alcotest.test_case "unroll divides trip" `Quick test_unroll_divides_trip;
    Alcotest.test_case "bram estimation" `Quick test_bram_estimation;
    Alcotest.test_case "dsp usage" `Quick test_dsp_usage_reported;
    Alcotest.test_case "resources grow with partitioning" `Quick test_resources_grow_with_partitioning;
    Alcotest.test_case "report renders" `Quick test_report_renders;
  ]
