(** Cross-cutting coverage: dialect registry, attribute accessors,
    value helpers, scf constructs through the C++ round-trip, operator
    model totality. *)

open Mhir

(* ------------------------------------------------------------------ *)
(* Dialect registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_registry_consistency () =
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " is known") true (Dialect.is_known name);
      Alcotest.(check string)
        (name ^ " has a dialect prefix")
        (List.hd (String.split_on_char '.' name))
        (Dialect.dialect_of name))
    Dialect.registry

let test_terminators_are_not_pure () =
  List.iter
    (fun (name, s) ->
      if s.Dialect.terminator then
        Alcotest.(check bool) (name ^ " not pure") false (Dialect.is_pure name))
    Dialect.registry

(* The table gives each name's first binding in [registry], as a scan
   of the list would, for every registered name and for names that are
   not registered *)
let test_lookup_matches_registry () =
  let names =
    List.map fst Dialect.registry
    @ [ "foo.bar"; ""; "arith"; "arith."; "Arith.addi"; "arith.addi "; "affine.for.x" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " looked up as in the list") true
        (Dialect.lookup name = List.assoc_opt name Dialect.registry))
    names

let test_unknown_ops_rejected () =
  Alcotest.(check bool) "unknown op" false (Dialect.is_known "foo.bar");
  Alcotest.(check bool) "lookup_exn raises" true
    (try
       ignore (Dialect.lookup_exn "foo.bar");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Attributes                                                         *)
(* ------------------------------------------------------------------ *)

let test_attr_accessors () =
  Alcotest.(check int) "as_int" 5 (Attr.as_int (Attr.Int 5));
  Alcotest.(check (float 0.0)) "as_float coerces int" 5.0 (Attr.as_float (Attr.Int 5));
  Alcotest.(check string) "as_str" "x" (Attr.as_str (Attr.Str "x"));
  Alcotest.(check bool) "wrong kind raises" true
    (try
       ignore (Attr.as_int (Attr.Str "x"));
       false
     with Invalid_argument _ -> true)

let test_attr_dict () =
  let d = [ ("a", Attr.Int 1) ] in
  let d = Attr.set d "b" (Attr.Int 2) in
  let d = Attr.set d "a" (Attr.Int 9) in
  Alcotest.(check (option int)) "set overrides" (Some 9)
    (Option.map Attr.as_int (Attr.find d "a"));
  Alcotest.(check (option int)) "set adds" (Some 2)
    (Option.map Attr.as_int (Attr.find d "b"));
  Alcotest.(check bool) "find_exn raises on missing" true
    (try
       ignore (Attr.find_exn d "zzz");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Lvalue helpers                                                     *)
(* ------------------------------------------------------------------ *)

let test_lvalue_helpers () =
  let open Llvmir in
  Alcotest.(check (option int)) "const_int_value" (Some 7)
    (Lvalue.const_int_value (Lvalue.ci64 7));
  Alcotest.(check (option int)) "regs are not const" None
    (Lvalue.const_int_value (Lvalue.reg "x" Ltype.I64));
  Alcotest.(check bool) "same_reg" true
    (Lvalue.same_reg (Lvalue.reg "x" Ltype.I64) (Lvalue.reg "x" Ltype.I32));
  Alcotest.(check string) "typed_to_string" "i1 true"
    (Lvalue.typed_to_string (Lvalue.ci1 true));
  Alcotest.(check string) "float const" "2.5"
    (Lvalue.to_string (Lvalue.cf 2.5))

(* ------------------------------------------------------------------ *)
(* scf constructs through the full C++ round-trip                     *)
(* ------------------------------------------------------------------ *)

let build_clip () =
  let b = Builder.create () in
  let f =
    Builder.func b "clip"
      ~args:[ ("x", Types.memref [ 8 ]) ]
      ~ret_tys:[]
      (fun b args ->
        let x = List.hd args in
        let lb = Builder.constant_i b 0 in
        let ub = Builder.constant_i b 8 in
        let step = Builder.constant_i b 1 in
        ignore
          (Builder.scf_for b ~lb ~ub ~step (fun b i _ ->
               let v = Builder.load b x [ i ] in
               let limit = Builder.constant_f b 5.0 in
               let c = Builder.cmpf b Builder.Ogt v limit in
               let clipped =
                 Builder.scf_if b c ~result_tys:[ Types.F32 ]
                   ~then_:(fun b -> [ Builder.constant_f b 5.0 ])
                   ~else_:(fun _ -> [ v ])
               in
               Builder.store b (List.hd clipped) x [ i ];
               []));
        Builder.ret b [])
  in
  { Ir.funcs = [ f ] }

let test_scf_through_cpp_roundtrip () =
  let m = build_clip () in
  Verifier.verify_module m;
  let cpp = Hlscpp.Emit.emit_module (Canonicalize.run m) in
  Alcotest.(check bool) "emits an if" true (Str_find.contains cpp "if (");
  let lm = Hlscpp.Ccodegen.compile cpp in
  Llvmir.Lverifier.verify_module lm;
  let st = Llvmir.Linterp.create lm in
  let ax = Llvmir.Linterp.alloc_floats st 8 in
  Llvmir.Linterp.write_floats st ax [| 1.; 9.; 3.; 7.; 5.; 6.; 2.; 8. |];
  ignore (Llvmir.Linterp.run st "clip" [ Llvmir.Linterp.RPtr ax ]);
  let out = Llvmir.Linterp.read_floats st ax 8 in
  Alcotest.(check (float 1e-9)) "clipped via C++" 5.0 out.(1);
  Alcotest.(check (float 1e-9)) "kept via C++" 3.0 out.(2)

let test_scf_pretty_printer () =
  let m = build_clip () in
  let s = Printer.module_to_string m in
  Alcotest.(check bool) "pretty scf.for" true (Str_find.contains s "scf.for");
  Alcotest.(check bool) "pretty scf.if" true (Str_find.contains s "scf.if")

let test_scf_generic_roundtrip () =
  let m = build_clip () in
  let t1 = Printer.module_to_string ~generic:true m in
  let m2 = Parser.parse_module t1 in
  Verifier.verify_module m2;
  Alcotest.(check string) "fixpoint" t1 (Printer.module_to_string ~generic:true m2)

(* ------------------------------------------------------------------ *)
(* Operator model totality                                            *)
(* ------------------------------------------------------------------ *)

let test_op_model_total_on_kernels () =
  (* classify must succeed on every instruction both flows produce *)
  List.iter
    (fun k ->
      let check lm =
        List.iter
          (fun (f : Llvmir.Lmodule.func) ->
            Llvmir.Lmodule.iter_insts
              (fun i ->
                let _, cost = Hls_backend.Op_model.classify i in
                Alcotest.(check bool) "non-negative latency" true
                  (cost.Hls_backend.Op_model.latency >= 0))
              f)
          lm.Llvmir.Lmodule.funcs
      in
      let m = k.Workloads.Kernels.build Workloads.Kernels.pipelined in
      let direct, _, _ = Flow_util.frontend_exn m in
      let cpp, _, _ = Flow.hls_cpp_frontend (k.Workloads.Kernels.build Workloads.Kernels.pipelined) in
      check direct;
      check cpp)
    (Workloads.Kernels.all ())

let test_fu_names_unique () =
  let open Hls_backend.Op_model in
  let names =
    List.map fu_name
      [ FU_fadd; FU_fmul; FU_fdiv; FU_imul 32; FU_imul 64; FU_idiv; FU_alu;
        FU_mem_read; FU_mem_write; FU_none ]
  in
  Alcotest.(check int) "distinct class names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  [
    Alcotest.test_case "registry consistency" `Quick test_registry_consistency;
    Alcotest.test_case "terminators not pure" `Quick test_terminators_are_not_pure;
    Alcotest.test_case "unknown ops rejected" `Quick test_unknown_ops_rejected;
    Alcotest.test_case "lookup = registry scan" `Quick test_lookup_matches_registry;
    Alcotest.test_case "attr accessors" `Quick test_attr_accessors;
    Alcotest.test_case "attr dict" `Quick test_attr_dict;
    Alcotest.test_case "lvalue helpers" `Quick test_lvalue_helpers;
    Alcotest.test_case "scf through C++ roundtrip" `Quick test_scf_through_cpp_roundtrip;
    Alcotest.test_case "scf pretty printer" `Quick test_scf_pretty_printer;
    Alcotest.test_case "scf generic roundtrip" `Quick test_scf_generic_roundtrip;
    Alcotest.test_case "op model total" `Quick test_op_model_total_on_kernels;
    Alcotest.test_case "fu names unique" `Quick test_fu_names_unique;
  ]
