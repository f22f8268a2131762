(** Tests for the MLIR → LLVM lowering: the modern style must produce
    exactly the constructs the adaptor exists to remove, the classic
    style must not, and both must preserve semantics. *)

open Llvmir
module K = Workloads.Kernels

let lower ?style k d =
  let m = (k : K.kernel).K.build d in
  Lowering.Lower.lower_module ?style m

let count pred (m : Lmodule.t) =
  List.fold_left
    (fun acc f -> Lmodule.fold_insts (fun n i -> if pred i then n + 1 else n) acc f)
    0 m.Lmodule.funcs

let has_call name (m : Lmodule.t) =
  count
    (fun (i : Linstr.t) ->
      match i.Linstr.op with
      | Linstr.Call { callee; _ } -> callee = name
      | _ -> false)
    m
  > 0

let test_modern_emits_descriptors () =
  let m = lower (K.gemm ()) K.no_directives in
  let inserts =
    count
      (fun i -> match i.Linstr.op with Linstr.InsertValue _ -> true | _ -> false)
      m
  in
  (* 3 memref args x (2 ptrs + offset + 2 sizes + 2 strides) = 21 *)
  Alcotest.(check int) "descriptor insertvalue chains" 21 inserts

let test_modern_emits_opaque_pointers () =
  let m = lower (K.gemm ()) K.no_directives in
  let f = Lmodule.find_func_exn m "gemm" in
  List.iter
    (fun (p : Lmodule.param) ->
      Alcotest.(check bool) "param is opaque ptr" true
        (Ltype.is_opaque_pointer p.Lmodule.pty))
    f.Lmodule.params

let test_modern_emits_fmuladd () =
  let m = lower (K.gemm ()) K.no_directives in
  Alcotest.(check bool) "fmuladd fused" true (has_call "llvm.fmuladd.f32" m);
  (* and the plain fmul that fed it is gone *)
  let fmuls =
    count
      (fun i ->
        match i.Linstr.op with
        | Linstr.FBin (Linstr.FMul, _, _) -> true
        | _ -> false)
      m
  in
  Alcotest.(check int) "no separate fmul remains" 0 fmuls

let test_modern_emits_assume_and_lifetimes () =
  let m = lower (K.mm2 ()) K.no_directives in
  Alcotest.(check bool) "llvm.assume" true (has_call "llvm.assume" m);
  Alcotest.(check bool) "lifetime.start around local buffer" true
    (has_call "llvm.lifetime.start.p0" m)

let test_modern_emits_loop_metadata () =
  let m = lower (K.gemm ()) K.pipelined in
  let md_count =
    count (fun i -> i.Linstr.imeta <> []) m
  in
  Alcotest.(check bool) "latches carry metadata" true (md_count >= 3);
  let has_key key =
    count (fun i -> List.mem_assoc key i.Linstr.imeta) m > 0
  in
  Alcotest.(check bool) "pipeline ii key" true (has_key "llvm.loop.pipeline.ii");
  Alcotest.(check bool) "tripcount key" true (has_key "llvm.loop.tripcount")

let test_classic_style_is_clean () =
  let m = lower ~style:Lowering.Lower.classic (K.gemm ()) K.no_directives in
  Lverifier.verify_module m;
  let inserts =
    count
      (fun i -> match i.Linstr.op with Linstr.InsertValue _ -> true | _ -> false)
      m
  in
  Alcotest.(check int) "no descriptors" 0 inserts;
  let f = Lmodule.find_func_exn m "gemm" in
  List.iter
    (fun (p : Lmodule.param) ->
      Alcotest.(check bool) "typed param" false
        (Ltype.is_opaque_pointer p.Lmodule.pty))
    f.Lmodule.params;
  Alcotest.(check bool) "no fmuladd" true (not (has_call "llvm.fmuladd.f32" m))

let test_lowered_ir_verifies_all_kernels () =
  List.iter
    (fun k ->
      List.iter
        (fun style ->
          let m = lower ~style k K.pipelined in
          Lverifier.verify_module m)
        [ Lowering.Lower.modern; Lowering.Lower.classic ])
    (K.all ())

let test_modern_vs_classic_semantics () =
  (* two very different lowerings of the same program must agree *)
  List.iter
    (fun k ->
      let modern = lower ~style:Lowering.Lower.modern k K.no_directives in
      let classic = lower ~style:Lowering.Lower.classic k K.no_directives in
      let a = Flow.run_llvm k modern in
      let b = Flow.run_llvm k classic in
      List.iteri
        (fun i (x, y) ->
          Array.iteri
            (fun j xv ->
              if Float.abs (xv -. y.(j)) > 1e-9 then
                Alcotest.failf "%s: modern/classic diverge at %d[%d]"
                  k.K.kname i j)
            x)
        (List.combine a b))
    (K.all ())

let test_linearized_accesses () =
  (* in modern style every access GEP is flat (1 index over the elem) *)
  let m = lower (K.gemm ()) K.no_directives in
  Lmodule.iter_insts
    (fun (i : Linstr.t) ->
      match i.Linstr.op with
      | Linstr.Gep { src_ty; idxs; _ } ->
          Alcotest.(check bool) "flat elem gep" true
            (src_ty = Ltype.Float && List.length idxs = 1)
      | _ -> ())
    (Lmodule.find_func_exn m "gemm")

let test_scalar_args_lower_directly () =
  (* a function with a scalar argument keeps it as a value param *)
  let b = Mhir.Builder.create () in
  let f =
    Mhir.Builder.func b "scale"
      ~args:[ ("x", Mhir.Types.memref [ 4 ]); ("s", Mhir.Types.F32) ]
      ~ret_tys:[]
      (fun b args ->
        match args with
        | [ x; s ] ->
            ignore
              (Mhir.Builder.affine_for b ~lb:0 ~ub:4 (fun b i _ ->
                   let v = Mhir.Builder.load b x [ i ] in
                   let v2 = Mhir.Builder.mulf b v s in
                   Mhir.Builder.store b v2 x [ i ];
                   []));
            Mhir.Builder.ret b []
        | _ -> assert false)
  in
  let lm = Lowering.Lower.lower_module { Mhir.Ir.funcs = [ f ] } in
  Lverifier.verify_module lm;
  let lf = Lmodule.find_func_exn lm "scale" in
  (match (List.nth lf.Lmodule.params 1).Lmodule.pty with
  | Ltype.Float -> ()
  | t -> Alcotest.failf "scalar param lowered to %s" (Ltype.to_string t));
  (* run it *)
  let st = Linterp.create lm in
  let ax = Linterp.alloc_floats st 4 in
  Linterp.write_floats st ax [| 1.; 2.; 3.; 4. |];
  ignore (Linterp.run st "scale" [ Linterp.RPtr ax; Linterp.RFloat 2.0 ]);
  Alcotest.(check (float 1e-9)) "x[2] scaled" 6.0 (Linterp.read_floats st ax 4).(2)

let test_scf_constructs_lower () =
  (* scf.for + scf.if lower to correct CFG *)
  let b = Mhir.Builder.create () in
  let f =
    Mhir.Builder.func b "clip"
      ~args:[ ("x", Mhir.Types.memref [ 8 ]) ]
      ~ret_tys:[]
      (fun b args ->
        let x = List.hd args in
        let lb = Mhir.Builder.constant_i b 0 in
        let ub = Mhir.Builder.constant_i b 8 in
        let step = Mhir.Builder.constant_i b 1 in
        ignore
          (Mhir.Builder.scf_for b ~lb ~ub ~step (fun b i _ ->
               let v = Mhir.Builder.load b x [ i ] in
               let limit = Mhir.Builder.constant_f b 5.0 in
               let c = Mhir.Builder.cmpf b Mhir.Builder.Ogt v limit in
               let clipped =
                 Mhir.Builder.scf_if b c ~result_tys:[ Mhir.Types.F32 ]
                   ~then_:(fun b -> [ Mhir.Builder.constant_f b 5.0 ])
                   ~else_:(fun _ -> [ v ])
               in
               Mhir.Builder.store b (List.hd clipped) x [ i ];
               []));
        Mhir.Builder.ret b [])
  in
  let m = { Mhir.Ir.funcs = [ f ] } in
  Mhir.Verifier.verify_module m;
  let lm = Lowering.Lower.lower_module m in
  Lverifier.verify_module lm;
  let st = Linterp.create lm in
  let ax = Linterp.alloc_floats st 8 in
  Linterp.write_floats st ax [| 1.; 9.; 3.; 7.; 5.; 6.; 2.; 8. |];
  ignore (Linterp.run st "clip" [ Linterp.RPtr ax ]);
  let out = Linterp.read_floats st ax 8 in
  Alcotest.(check (float 1e-9)) "clipped 9 -> 5" 5.0 out.(1);
  Alcotest.(check (float 1e-9)) "kept 3" 3.0 out.(2);
  Alcotest.(check (float 1e-9)) "clipped 8 -> 5" 5.0 out.(7)

(* The direct-IR flow writes the directives after the cleanup, and the
   batch driver shares one directive-free cleanup output among every
   design point of a kernel.  Both rest on the cleanup reading neither
   loop metadata nor function attributes: for every kernel x the
   default grid, the directives applied after the cleanup print the
   bytes of the cleanup after {!Lowering.Lower.lower_module}, and the
   directive-free cleanup output carries no directive and is the same
   for every point. *)
let test_directives_after_cleanup () =
  let print = Lprinter.module_to_string in
  List.iter
    (fun (k : K.kernel) ->
      let prefixes =
        List.map
          (fun (cfg, d) ->
            let what = k.K.kname ^ "/" ^ cfg in
            let m = Mhir.Canonicalize.run (k.K.build d) in
            let bare = Flow.llvm_cleanup (Lowering.Lower.directive_free m) in
            Alcotest.(check string)
              (what ^ ": apply-directives after the cleanup")
              (print (Flow.llvm_cleanup (Lowering.Lower.lower_module m)))
              (print (Lowering.Apply_directives.run m bare));
            List.iter
              (fun (f : Lmodule.func) ->
                Alcotest.(check (list (pair string string)))
                  (what ^ ": no function attributes") [] f.Lmodule.fattrs;
                Lmodule.iter_insts
                  (fun i ->
                    List.iter
                      (fun (key, _) ->
                        Alcotest.(check string) (what ^ ": only loop ids")
                          Lowering.Apply_directives.loop_id key)
                      i.Linstr.imeta)
                  f)
              bare.Lmodule.funcs;
            print bare)
          Mhls_driver.Driver.default_grid
      in
      List.iter
        (Alcotest.(check string)
           (k.K.kname ^ ": one directive-free prefix")
           (List.hd prefixes))
        prefixes)
    (K.all ())

let suite =
  [
    Alcotest.test_case "modern emits descriptors" `Quick test_modern_emits_descriptors;
    Alcotest.test_case "modern emits opaque pointers" `Quick test_modern_emits_opaque_pointers;
    Alcotest.test_case "modern emits fmuladd" `Quick test_modern_emits_fmuladd;
    Alcotest.test_case "modern emits assume/lifetimes" `Quick
      test_modern_emits_assume_and_lifetimes;
    Alcotest.test_case "modern emits loop metadata" `Quick test_modern_emits_loop_metadata;
    Alcotest.test_case "classic style is clean" `Quick test_classic_style_is_clean;
    Alcotest.test_case "lowered IR verifies (all kernels)" `Quick
      test_lowered_ir_verifies_all_kernels;
    Alcotest.test_case "modern vs classic semantics" `Quick test_modern_vs_classic_semantics;
    Alcotest.test_case "linearized accesses" `Quick test_linearized_accesses;
    Alcotest.test_case "scalar args" `Quick test_scalar_args_lower_directly;
    Alcotest.test_case "scf constructs" `Quick test_scf_constructs_lower;
    Alcotest.test_case "directives after the cleanup (all kernels x grid)"
      `Quick test_directives_after_cleanup;
  ]
