(** Building your own kernel against the public API — a weighted
    moving-average filter that is not part of the benchmark suite —
    and taking it through both flows.

      dune exec examples/custom_kernel.exe

    Demonstrates:
    - the mhir {!Mhir.Builder} API (loops with iter_args, affine
      subscript maps, HLS directive attributes);
    - attaching array-partition directives via function attributes;
    - running a hand-built module through [Flow.direct_ir_frontend] /
      [Flow.hls_cpp_frontend] without a [Workloads.Kernels.kernel]
      wrapper. *)

open Mhir

let n = 32
let taps = 4

(** y[i] = (w0*x[i] + w1*x[i+1] + w2*x[i+2] + w3*x[i+3]) / sum(w) *)
let build () =
  let b = Builder.create () in
  let f =
    Builder.func b "wavg"
      ~args:
        [ ("x", Types.memref [ n ]); ("w", Types.memref [ taps ]);
          ("y", Types.memref [ n - taps + 1 ]) ]
      ~ret_tys:[]
      ~fattrs:[ ("hls.partition.x", Attr.Str "cyclic:2:1") ]
      (fun b args ->
        match args with
        | [ x; w; y ] ->
            (* total weight, computed once before the main loop *)
            let zero = Builder.constant_f b 0.0 in
            let wsum =
              Builder.affine_for b ~lb:0 ~ub:taps ~iters:[ zero ]
                (fun b k iters ->
                  let wv = Builder.load b w [ k ] in
                  [ Builder.addf b (List.hd iters) wv ])
            in
            ignore
              (Builder.affine_for b ~lb:0 ~ub:(n - taps + 1)
                 ~attrs:[ ("hls.pipeline", Attr.Int 1) ]
                 (fun b i _ ->
                   let acc =
                     Builder.affine_for b ~lb:0 ~ub:taps ~iters:[ zero ]
                       ~attrs:[ ("hls.unroll", Attr.Bool true) ]
                       (fun b k iters ->
                         let wv = Builder.load b w [ k ] in
                         let xv =
                           Builder.affine_load b x
                             ~map:
                               (Affine_map.make ~num_dims:2 ~num_syms:0
                                  [ Affine_expr.add (Affine_expr.dim 0)
                                      (Affine_expr.dim 1) ])
                             [ i; k ]
                         in
                         let m = Builder.mulf b wv xv in
                         [ Builder.addf b (List.hd iters) m ])
                   in
                   let v = Builder.divf b (List.hd acc) (List.hd wsum) in
                   Builder.store b v y [ i ];
                   []));
            Builder.ret b []
        | _ -> assert false)
  in
  { Ir.funcs = [ f ] }

let () =
  let m = build () in
  Verifier.verify_module m;
  print_endline "multi-level IR:";
  print_string (Printer.module_to_string m);

  (* direct flow *)
  let lm, report, _ =
    match Flow.direct_ir_frontend m with
    | Ok r -> r
    | Error ds ->
        List.iter (fun d -> prerr_endline (Support.Diag.to_string d)) ds;
        exit 1
  in
  Printf.printf "\nadaptor: %d issues closed\n"
    (List.length report.Adaptor.issues_before);
  let r = Hls_backend.Backend.synthesize ~top:"wavg" lm in
  print_string (Hls_backend.Report.render r);

  (* baseline flow agrees functionally *)
  let lm_cpp, cpp, _ = Flow.hls_cpp_frontend m in
  print_endline "\ngenerated C++:";
  print_string cpp;
  let run lmod =
    let st = Llvmir.Linterp.create lmod in
    let ax = Llvmir.Linterp.alloc_floats st n in
    let aw = Llvmir.Linterp.alloc_floats st taps in
    let ay = Llvmir.Linterp.alloc_floats st (n - taps + 1) in
    Llvmir.Linterp.write_floats st ax (Array.init n (fun i -> float_of_int (i mod 5)));
    Llvmir.Linterp.write_floats st aw [| 1.0; 2.0; 2.0; 1.0 |];
    ignore
      (Llvmir.Linterp.run st "wavg"
         [ Llvmir.Linterp.RPtr ax; Llvmir.Linterp.RPtr aw; Llvmir.Linterp.RPtr ay ]);
    Llvmir.Linterp.read_floats st ay (n - taps + 1)
  in
  let a = run lm and b = run lm_cpp in
  let same = Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-6) a b in
  Printf.printf "\nboth flows agree: %s (y[0] = %g)\n"
    (if same then "PASS" else "FAIL")
    a.(0)
