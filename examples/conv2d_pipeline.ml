(** conv2d through the adaptor, with and without the "keep more
    expression details" step — the heart of the paper's argument.

      dune exec examples/conv2d_pipeline.exe

    The modern MLIR lowering linearizes every access
    ([img[(i+ki)*W + (j+kj)]] behind a descriptor), which makes the
    array shape invisible to the HLS backend.  The adaptor's
    delinearization reconstructs [img[i+ki][j+kj]], so partition
    directives can split the image across BRAM banks.  The flat-view
    ablation shows what a flow without that step would ship. *)

module K = Workloads.Kernels
module B = Hls_backend.Backend
module E = Hls_backend.Estimate

(* process boundary: surface adaptor diagnostics and bail *)
let frontend ?pipeline m =
  match Flow.direct_ir_frontend ?pipeline m with
  | Ok r -> r
  | Error ds ->
      List.iter (fun d -> prerr_endline (Support.Diag.to_string d)) ds;
      exit 1

let show_access_shapes lm =
  (* count 2-D vs 1-D GEPs in the top function *)
  let f = Llvmir.Lmodule.find_func_exn lm "conv2d" in
  let two_d = ref 0 and one_d = ref 0 in
  Llvmir.Lmodule.iter_insts
    (fun (i : Llvmir.Linstr.t) ->
      match i.Llvmir.Linstr.op with
      | Llvmir.Linstr.Gep { src_ty = Llvmir.Ltype.Array (_, Llvmir.Ltype.Array _); _ } ->
          incr two_d
      | Llvmir.Linstr.Gep { src_ty = Llvmir.Ltype.Array _; _ } -> incr one_d
      | _ -> ())
    f;
  Printf.printf "  access shapes: %d two-dimensional, %d flattened\n" !two_d !one_d

let () =
  let kernel = K.conv2d () in
  let directives =
    K.optimized ~factor:4 ~parts:[ ("img", 2); ("ker", 2) ] ()
  in
  Printf.printf "kernel: %s — %s\n\n" kernel.K.kname kernel.K.description;

  print_endline "--- full adaptor (with delinearization) ---";
  let m = kernel.K.build directives in
  let full_ir, report, _ = frontend m in
  Printf.printf "  %d GEPs delinearized, %d flat fallbacks\n"
    report.Adaptor.descriptors.Adaptor.Eliminate_descriptors.delinearized
    report.Adaptor.descriptors.Adaptor.Eliminate_descriptors.flat_fallback;
  show_access_shapes full_ir;
  let full = B.synthesize ~top:"conv2d" full_ir in
  Printf.printf "  latency: %d cycles\n\n" full.E.latency;

  print_endline "--- ablation: flat views (shape information lost) ---";
  let m = kernel.K.build directives in
  let flat_ir, _, _ = frontend ~pipeline:Adaptor.Pipeline.flat_views m in
  show_access_shapes flat_ir;
  let flat = B.synthesize ~top:"conv2d" flat_ir in
  Printf.printf "  latency: %d cycles\n\n" flat.E.latency;

  Printf.printf "delinearization speedup at partition factor 4: %.2fx\n"
    (float_of_int flat.E.latency /. float_of_int full.E.latency);

  (* both variants still compute the same convolution *)
  let out_full = Flow.run_llvm kernel full_ir in
  let out_flat = Flow.run_llvm kernel flat_ir in
  let same =
    List.for_all2
      (fun a b ->
        Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b)
      out_full out_flat
  in
  Printf.printf "functional equivalence of both variants: %s\n"
    (if same then "PASS" else "FAIL");

  (* print the loop table of the good version *)
  print_newline ();
  print_string (Hls_backend.Report.render full)
