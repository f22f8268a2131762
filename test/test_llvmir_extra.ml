(** Additional LLVM-substrate coverage: globals, module utilities,
    printer/parser edge cases. *)

open Llvmir

let test_globals_roundtrip () =
  let text =
    {|@table = constant [4 x float] zeroinitializer
@counter = global i64 0
define i64 @f() {
entry:
  %v = load i64, i64* @counter
  ret i64 %v
}|}
  in
  let m = Lparser.parse_module text in
  Alcotest.(check int) "two globals" 2 (List.length m.Lmodule.globals);
  let g = List.find (fun (g : Lmodule.global) -> g.Lmodule.gname = "table") m.Lmodule.globals in
  Alcotest.(check bool) "constant flag" true g.Lmodule.gconst;
  let t2 = Lprinter.module_to_string m in
  let m2 = Lparser.parse_module t2 in
  Alcotest.(check int) "roundtrip keeps globals" 2 (List.length m2.Lmodule.globals)

let test_globals_interpreted () =
  let text =
    {|@acc = global i64 0
define void @bump() {
entry:
  %v = load i64, i64* @acc
  %v2 = add i64 %v, 5
  store i64 %v2, i64* @acc
  ret void
}
define i64 @read() {
entry:
  %v = load i64, i64* @acc
  ret i64 %v
}|}
  in
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  let st = Linterp.create m in
  ignore (Linterp.run st "bump" []);
  ignore (Linterp.run st "bump" []);
  (match Linterp.run st "read" [] with
  | Some (Linterp.RInt 10) -> ()
  | Some (Linterp.RInt v) -> Alcotest.failf "expected 10, got %d" v
  | _ -> Alcotest.fail "bad result")

let test_ensure_decl_idempotent () =
  let m = Lmodule.empty "m" in
  let d = { Lmodule.dname = "foo"; dret = Ltype.Void; dargs = [] } in
  let m = Lmodule.ensure_decl m d in
  let m = Lmodule.ensure_decl m d in
  Alcotest.(check int) "declared once" 1 (List.length m.Lmodule.decls)

let test_def_sites () =
  let sym = Support.Interner.intern in
  let m =
    Lparser.parse_module
      {|define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, %x
  %b = add i64 %a, %x
  ret i64 %b
}|}
  in
  let f = Lmodule.find_func_exn m "f" in
  let idx = Findex.build f in
  let site = function
    | Some (Findex.Param i) -> Printf.sprintf "param %d" i
    | Some (Findex.Instr k) -> Printf.sprintf "row %d" k
    | None -> "none"
  in
  Alcotest.(check string) "x is the first parameter" "param 0"
    (site (Findex.def idx (sym "x")));
  Alcotest.(check string) "a is row 0" "row 0" (site (Findex.def idx (sym "a")));
  Alcotest.(check string) "b is row 1" "row 1" (site (Findex.def idx (sym "b")));
  Alcotest.(check string) "y is undefined" "none"
    (site (Findex.def idx (sym "y")));
  Alcotest.(check int) "an undefined name has no local id" (-1)
    (Findex.local_of idx (sym "y"))

let test_substitute_transitive () =
  let m =
    Lparser.parse_module
      {|define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, 1
  ret i64 %a
}|}
  in
  let f = Lmodule.find_func_exn m "f" in
  let sym = Support.Interner.intern in
  let subst = Support.Interner.Tbl.create 2 in
  Support.Interner.Tbl.replace subst (sym "a") (Lvalue.reg "b" Ltype.I64);
  Support.Interner.Tbl.replace subst (sym "b") (Lvalue.ci64 7);
  let f' = Findex.substitute_func subst f in
  let ret_operand =
    Lmodule.fold_insts
      (fun acc (i : Linstr.t) ->
        match i.Linstr.op with Linstr.Ret (Some v) -> Some v | _ -> acc)
      None f'
  in
  Alcotest.(check bool) "chained substitution resolves" true
    (ret_operand = Some (Lvalue.ci64 7))

let test_printer_negative_floats () =
  let text =
    {|define float @f() {
entry:
  %a = fadd float -2.5, 1.0
  ret float %a
}|}
  in
  let m = Lparser.parse_module text in
  let m2 = Lparser.parse_module (Lprinter.module_to_string m) in
  let st = Linterp.create m2 in
  (match Linterp.run st "f" [] with
  | Some (Linterp.RFloat v) -> Alcotest.(check (float 1e-9)) "-2.5+1" (-1.5) v
  | _ -> Alcotest.fail "bad result")

let test_printer_metadata_roundtrip () =
  let text =
    {|define void @f() {
entry:
  br label %l !md{llvm.loop.unroll.count = 4, note = "hot"}
l:
  ret void
}|}
  in
  let m = Lparser.parse_module text in
  let f = Lmodule.find_func_exn m "f" in
  let entry = Lmodule.entry f in
  let term = List.hd (List.rev entry.Lmodule.insts) in
  Alcotest.(check int) "two metadata entries" 2 (List.length term.Linstr.imeta);
  let m2 = Lparser.parse_module (Lprinter.module_to_string m) in
  let f2 = Lmodule.find_func_exn m2 "f" in
  let term2 = List.hd (List.rev (Lmodule.entry f2).Lmodule.insts) in
  Alcotest.(check bool) "metadata round-trips" true
    (term.Linstr.imeta = term2.Linstr.imeta)

let test_param_attrs_roundtrip () =
  let text =
    {|define void @f(float* %p attrs(fpga.interface = "bram", fpga.partition.factor = "4")) {
entry:
  ret void
}|}
  in
  let m = Lparser.parse_module text in
  let m2 = Lparser.parse_module (Lprinter.module_to_string m) in
  let p = List.hd (Lmodule.find_func_exn m2 "f").Lmodule.params in
  Alcotest.(check int) "two attrs survive" 2 (List.length p.Lmodule.pattrs)

let test_double_precision_ops () =
  let text =
    {|define double @f(double %x) {
entry:
  %a = fmul double %x, 2.0
  %b = fadd double %a, 0.5
  ret double %b
}|}
  in
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  let st = Linterp.create m in
  (match Linterp.run st "f" [ Linterp.RFloat 3.25 ] with
  | Some (Linterp.RFloat v) -> Alcotest.(check (float 1e-12)) "3.25*2+0.5" 7.0 v
  | _ -> Alcotest.fail "bad result");
  (* double ops cost more in the operator model *)
  let fadd_f32 =
    Linstr.make ~result:"a" ~ty:Ltype.Float
      (Linstr.FBin (Linstr.FAdd, Lvalue.cf 1.0, Lvalue.cf 2.0))
  in
  let fadd_f64 =
    Linstr.make ~result:"a" ~ty:Ltype.Double
      (Linstr.FBin
         (Linstr.FAdd, Lvalue.cf ~ty:Ltype.Double 1.0, Lvalue.cf ~ty:Ltype.Double 2.0))
  in
  let _, c32 = Hls_backend.Op_model.classify fadd_f32 in
  let _, c64 = Hls_backend.Op_model.classify fadd_f64 in
  Alcotest.(check bool) "double fadd is deeper" true
    (c64.Hls_backend.Op_model.latency > c32.Hls_backend.Op_model.latency)

let suite =
  [
    Alcotest.test_case "globals roundtrip" `Quick test_globals_roundtrip;
    Alcotest.test_case "globals interpreted" `Quick test_globals_interpreted;
    Alcotest.test_case "ensure_decl idempotent" `Quick test_ensure_decl_idempotent;
    Alcotest.test_case "def sites" `Quick test_def_sites;
    Alcotest.test_case "substitute transitive" `Quick test_substitute_transitive;
    Alcotest.test_case "negative floats" `Quick test_printer_negative_floats;
    Alcotest.test_case "metadata roundtrip" `Quick test_printer_metadata_roundtrip;
    Alcotest.test_case "param attrs roundtrip" `Quick test_param_attrs_roundtrip;
    Alcotest.test_case "double precision" `Quick test_double_precision_ops;
  ]
