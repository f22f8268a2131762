(** A guided tour of the IR at every stage of the direct flow, on a
    tiny dot-product kernel — useful for understanding exactly what
    the adaptor rewrites.

      dune exec examples/ir_tour.exe

    Stages shown:
    1. multi-level IR (pretty form);
    2. modern LLVM IR as MLIR lowers it (descriptors, opaque pointers,
       fmuladd, lifetime markers, loop metadata);
    3. the same IR after the cleanup pipeline;
    4. HLS-ready IR after the adaptor;
    5. the compat checker's view before/after. *)

open Mhir

let banner s =
  Printf.printf "\n%s\n%s\n" s (String.make (String.length s) '-')

let build_dot n =
  let b = Builder.create () in
  let vty = Types.memref [ n ] in
  let f =
    Builder.func b "dot"
      ~args:[ ("x", vty); ("y", vty); ("out", Types.memref [ 1 ]) ]
      ~ret_tys:[]
      (fun b args ->
        match args with
        | [ x; y; out ] ->
            let zero = Builder.constant_f b 0.0 in
            let acc =
              Builder.affine_for b ~lb:0 ~ub:n ~iters:[ zero ]
                ~attrs:[ ("hls.pipeline", Attr.Int 1) ]
                (fun b i iters ->
                  let xv = Builder.load b x [ i ] in
                  let yv = Builder.load b y [ i ] in
                  let m = Builder.mulf b xv yv in
                  [ Builder.addf b (List.hd iters) m ])
            in
            let c0 = Builder.constant_i b 0 in
            Builder.store b (List.hd acc) out [ c0 ];
            Builder.ret b []
        | _ -> assert false)
  in
  { Ir.funcs = [ f ] }

let () =
  let n = 8 in
  let m = build_dot n in
  Verifier.verify_module m;

  banner "1. multi-level IR (the MLIR analogue)";
  print_string (Printer.module_to_string m);

  banner "2. modern LLVM IR (what mlir-translate emits today)";
  let lm = Lowering.Lower.lower_module m in
  print_string (Llvmir.Lprinter.module_to_string lm);

  banner "3. after the LLVM cleanup pipeline (mem2reg, cse, licm, ...)";
  let lm_opt = fst (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline lm) in
  print_string (Llvmir.Lprinter.module_to_string lm_opt);

  banner "4. compat check on the modern IR (what Vitis would choke on)";
  let issues = Adaptor.Compat.check lm_opt in
  List.iter
    (fun (k, n) -> Printf.printf "  %-20s %d\n" k n)
    (Adaptor.Compat.summarize issues);

  banner "5. HLS-ready IR after the adaptor";
  let adapted, report = Adaptor.run_exn lm_opt in
  print_string (Llvmir.Lprinter.module_to_string adapted);
  Printf.printf "\nremaining issues: %d\n" (List.length report.Adaptor.issues_after);

  banner "6. synthesis + functional check";
  let r = Hls_backend.Backend.synthesize ~top:"dot" adapted in
  print_string (Hls_backend.Report.render r);
  (* run it: dot of [1..8] with itself = 204 *)
  let st = Llvmir.Linterp.create adapted in
  let ax = Llvmir.Linterp.alloc_floats st n in
  let ay = Llvmir.Linterp.alloc_floats st n in
  let aout = Llvmir.Linterp.alloc_floats st 1 in
  let data = Array.init n (fun i -> float_of_int (i + 1)) in
  Llvmir.Linterp.write_floats st ax data;
  Llvmir.Linterp.write_floats st ay data;
  ignore
    (Llvmir.Linterp.run st "dot"
       [ Llvmir.Linterp.RPtr ax; Llvmir.Linterp.RPtr ay; Llvmir.Linterp.RPtr aout ]);
  let out = Llvmir.Linterp.read_floats st aout 1 in
  Printf.printf "\ndot([1..%d], [1..%d]) = %g (expected %g)\n" n n out.(0)
    (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 data)
