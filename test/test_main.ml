(** Test entry point: one Alcotest suite per subsystem. *)

let () =
  Alcotest.run "mlir-hls-adaptor"
    [
      ("support", Test_support.suite);
      ("json", Test_json.suite);
      ("affine", Test_affine.suite);
      ("mhir", Test_mhir.suite);
      ("mhir-interp", Test_mhir_interp.suite);
      ("loop-unroll", Test_loop_unroll.suite);
      ("ltype", Test_ltype.suite);
      ("llvmir", Test_llvmir.suite);
      ("llvm-analyses", Test_llvm_analyses.suite);
      ("dataflow", Test_dataflow.suite);
      ("memdep", Test_memdep.suite);
      ("alias", Test_alias.suite);
      ("verifier-neg", Test_verifier_neg.suite);
      ("malformed", Test_malformed.suite);
      ("llvmir-extra", Test_llvmir_extra.suite);
      ("findex", Test_findex.suite);
      ("llvm-interp", Test_llvm_interp.suite);
      ("llvm-passes", Test_llvm_passes.suite);
      ("adaptor", Test_adaptor.suite);
      ("hlscpp", Test_hlscpp.suite);
      ("hls-backend", Test_hls_backend.suite);
      ("backend", Test_backend.suite);
      ("workloads", Test_workloads.suite);
      ("lowering", Test_lowering.suite);
      ("flow", Test_flow.suite);
      ("lint", Test_lint.suite);
      ("random", Test_random.suite);
      ("dse", Test_dse.suite);
      ("driver", Test_driver.suite);
      ("misc", Test_misc.suite);
      ("int-semantics", Test_int_semantics.suite);
      ("difftest", Test_difftest.suite);
      ("serve", Test_serve.suite);
    ]
