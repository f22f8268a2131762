(** LLVM IR structural tests: builder, printer/parser round-trip, and
    verifier rejection cases. *)

open Llvmir
module B = Lbuilder

(* ------------------------------------------------------------------ *)
(* Hand-built functions                                               *)
(* ------------------------------------------------------------------ *)

(** A small function with a loop, phis, GEPs, loads/stores:
    sums a float array of length [n]. *)
let build_sum n : Lmodule.func =
  let b = B.create () in
  let arr = Lvalue.reg "x" (Ltype.ptr (Ltype.Array (n, Ltype.Float))) in
  B.start_block b "entry";
  B.br b "header";
  B.start_block b "header";
  let iv = B.phi b ~name:"i" Ltype.I64 [ (Lvalue.ci64 0, "entry"); (Lvalue.reg "i.next" Ltype.I64, "body") ] in
  let acc =
    B.phi b ~name:"acc" Ltype.Float
      [ (Lvalue.cf 0.0, "entry"); (Lvalue.reg "acc.next" Ltype.Float, "body") ]
  in
  let c = B.icmp b Linstr.ISlt iv (Lvalue.ci64 n) in
  B.condbr b c "body" "exit";
  B.start_block b "body";
  let addr = B.gep b ~src_ty:(Ltype.Array (n, Ltype.Float)) arr [ Lvalue.ci64 0; iv ] in
  let v = B.load b Ltype.Float addr in
  let acc_next =
    B.emit b (Linstr.make ~result:"acc.next" ~ty:Ltype.Float (Linstr.FBin (Linstr.FAdd, acc, v)));
    Lvalue.reg "acc.next" Ltype.Float
  in
  ignore acc_next;
  B.emit b (Linstr.make ~result:"i.next" ~ty:Ltype.I64 (Linstr.IBin (Linstr.Add, iv, Lvalue.ci64 1)));
  B.br b "header";
  B.start_block b "exit";
  B.ret b (Some acc);
  {
    Lmodule.fname = "sum";
    ret_ty = Ltype.Float;
    params = [ { Lmodule.pname = "x"; pty = Ltype.ptr (Ltype.Array (n, Ltype.Float)); pattrs = [] } ];
    blocks = B.finish b;
    fattrs = [];
  }

let sum_module n : Lmodule.t =
  { Lmodule.mname = "m"; funcs = [ build_sum n ]; globals = []; decls = [] }

let test_builder_and_verifier () = Lverifier.verify_module (sum_module 8)

let test_builder_rejects_unterminated () =
  let b = B.create () in
  B.start_block b "entry";
  ignore (B.ibin b Linstr.Add (Lvalue.ci64 1) (Lvalue.ci64 2));
  Alcotest.(check bool) "finish with open block fails" true
    (try
       ignore (B.finish b);
       false
     with Support.Err.Compile_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Round-trip                                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip m =
  let t1 = Lprinter.module_to_string m in
  let m2 = Lparser.parse_module t1 in
  Lverifier.verify_module m2;
  let t2 = Lprinter.module_to_string m2 in
  (t1, t2)

let test_roundtrip_sum () =
  let t1, t2 = roundtrip (sum_module 8) in
  (* module name differs after parsing; compare from the first define *)
  let from_define s =
    let idx = Str_find.find s "define" in
    String.sub s idx (String.length s - idx)
  in
  Alcotest.(check string) "roundtrip fixpoint" (from_define t1) (from_define t2)

let test_roundtrip_lowered_kernels () =
  List.iter
    (fun k ->
      let m = k.Workloads.Kernels.build Workloads.Kernels.pipelined in
      let lm = Lowering.Lower.lower_module m in
      let t1 = Lprinter.module_to_string lm in
      let lm2 = Lparser.parse_module t1 in
      Lverifier.verify_module lm2;
      let t2 = Lprinter.module_to_string lm2 in
      let strip s =
        let idx = Str_find.find s "declare" in
        String.sub s idx (String.length s - idx)
      in
      Alcotest.(check string)
        (k.Workloads.Kernels.kname ^ " lowered IR round-trips")
        (strip t1) (strip t2))
    (Workloads.Kernels.all ())

let test_roundtrip_adapted_kernels () =
  List.iter
    (fun k ->
      let m = k.Workloads.Kernels.build Workloads.Kernels.pipelined in
      let lm, _, _ = Flow_util.frontend_exn m in
      let t1 = Lprinter.module_to_string lm in
      let lm2 = Lparser.parse_module t1 in
      Lverifier.verify_module lm2;
      Alcotest.(check bool)
        (k.Workloads.Kernels.kname ^ " adapted IR still HLS-legal")
        true
        (Hls_backend.Adaptor_markers.legality_errors lm2 = []))
    (Workloads.Kernels.all ())

(* ------------------------------------------------------------------ *)
(* Name generators                                                    *)
(* ------------------------------------------------------------------ *)

(* [Lmodule.namegen] reads the function's names on first use; a
   generator that reserves them all up front, and mem2reg's, which asks
   the function index and the CFG per name, must hand out the same
   names, in the same order, under the same mix of calls *)
let test_namegen_lazy_is_eager () =
  let module N = Support.Namegen in
  let module Sym = Support.Interner in
  let eager (f : Lmodule.func) =
    let g = N.create () in
    List.iter (fun p -> N.reserve g p.Lmodule.pname) f.Lmodule.params;
    List.iter (fun b -> N.reserve g (Sym.name b.Lmodule.label)) f.Lmodule.blocks;
    Lmodule.iter_insts
      (fun i ->
        if not (Sym.is_empty i.Linstr.result) then N.reserve g (Sym.name i.Linstr.result))
      f;
    g
  in
  let check_func (f : Lmodule.func) =
    let names =
      List.map (fun p -> p.Lmodule.pname) f.Lmodule.params
      @ List.map (fun b -> Sym.name b.Lmodule.label) f.Lmodule.blocks
      @ Lmodule.fold_insts
          (fun acc i ->
            if Sym.is_empty i.Linstr.result then acc else Sym.name i.Linstr.result :: acc)
          [] f
    in
    let bases = names @ [ "idx"; "cast"; "sext"; "idx"; "x.phi"; "entry.cont" ] in
    (* each of the three calls may come first *)
    List.iter
      (fun first ->
        let run g =
          let pre =
            match first with
            | `Fresh -> []
            | `Reserve -> N.reserve g "idx0"; []
            | `Is_used -> List.map (fun n -> if N.is_used g n then "y" else "n") names
          in
          pre @ List.map (N.fresh g) bases
        in
        Alcotest.(check (list string))
          (f.Lmodule.fname ^ " fresh sequence")
          (run (eager f)) (run (Lmodule.namegen f));
        Alcotest.(check (list string))
          (f.Lmodule.fname ^ " fresh sequence, asked per name")
          (run (eager f))
          (run (Opt_mem2reg.phi_names (Findex.build f) (Cfg.build f))))
      [ `Fresh; `Reserve; `Is_used ]
  in
  List.iter
    (fun k ->
      let m = k.Workloads.Kernels.build Workloads.Kernels.pipelined in
      let lm = Lowering.Lower.lower_module m in
      let adapted, _, _ = Flow_util.frontend_exn m in
      List.iter check_func (lm.Lmodule.funcs @ adapted.Lmodule.funcs))
    (Workloads.Kernels.all ())

(* ------------------------------------------------------------------ *)
(* Verifier rejections                                                *)
(* ------------------------------------------------------------------ *)

let expect_reject name text =
  Alcotest.(check bool) name true
    (try
       let m = Lparser.parse_module text in
       Lverifier.verify_module m;
       false
     with Support.Err.Compile_error _ -> true)

let test_verifier_use_before_def () =
  expect_reject "use before def"
    {|define i64 @f() {
entry:
  %a = add i64 %b, 1
  %b = add i64 1, 2
  ret i64 %a
}|}

let test_verifier_double_def () =
  expect_reject "double definition"
    {|define i64 @f() {
entry:
  %a = add i64 1, 1
  %a = add i64 2, 2
  ret i64 %a
}|}

let test_verifier_missing_terminator () =
  expect_reject "missing terminator"
    {|define void @f() {
entry:
  %a = add i64 1, 1
other:
  ret void
}|}

let test_verifier_phi_in_entry () =
  expect_reject "phi in entry block"
    {|define i64 @f() {
entry:
  %p = phi i64 [ 0, %entry ]
  ret i64 %p
}|}

let test_verifier_bad_branch_target () =
  expect_reject "branch to unknown block"
    {|define void @f() {
entry:
  br label %nowhere
}|}

let test_verifier_type_mismatch () =
  expect_reject "store type mismatch"
    {|define void @f(float* %p) {
entry:
  store i64 1, float* %p
  ret void
}|}

let test_verifier_dominance_across_blocks () =
  expect_reject "cross-block use not dominated"
    {|define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i64 1, 1
  br label %join
b:
  br label %join
join:
  ret i64 %x
}|}

let test_verifier_accepts_valid_diamond () =
  let text =
    {|define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i64 1, 1
  br label %join
b:
  %y = add i64 2, 2
  br label %join
join:
  %r = phi i64 [ %x, %a ], [ %y, %b ]
  ret i64 %r
}|}
  in
  Lverifier.verify_module (Lparser.parse_module text)

let test_verifier_call_arity () =
  expect_reject "call arity mismatch"
    {|declare void @g(i64)
define void @f() {
entry:
  call void @g(i64 1, i64 2)
  ret void
}|}

(** Every opcode table entry sits at its operator's code and is what
    the operator prints as and parses from. *)
let test_opcode_tables () =
  let check name table code to_string of_string =
    Array.iteri
      (fun i (op, text) ->
        Alcotest.(check int) (name ^ " " ^ text ^ ": code") i (code op);
        Alcotest.(check string) (name ^ ": printed") text (to_string op);
        Alcotest.(check bool) (name ^ " " ^ text ^ ": parsed") true
          (of_string text = Some op))
      table
  in
  let open Linstr in
  check "ibinop" ibinops ibinop_code string_of_ibinop ibinop_of_string;
  check "fbinop" fbinops fbinop_code string_of_fbinop fbinop_of_string;
  check "icmp" icmps icmp_code string_of_icmp icmp_of_string;
  check "fcmp" fcmps fcmp_code string_of_fcmp fcmp_of_string;
  check "cast" casts cast_code string_of_cast cast_of_string

let suite =
  [
    Alcotest.test_case "builder + verifier" `Quick test_builder_and_verifier;
    Alcotest.test_case "builder rejects open blocks" `Quick test_builder_rejects_unterminated;
    Alcotest.test_case "roundtrip sum" `Quick test_roundtrip_sum;
    Alcotest.test_case "roundtrip lowered kernels" `Quick test_roundtrip_lowered_kernels;
    Alcotest.test_case "roundtrip adapted kernels" `Quick test_roundtrip_adapted_kernels;
    Alcotest.test_case "namegen lazy = eager" `Quick test_namegen_lazy_is_eager;
    Alcotest.test_case "verifier: use before def" `Quick test_verifier_use_before_def;
    Alcotest.test_case "verifier: double def" `Quick test_verifier_double_def;
    Alcotest.test_case "verifier: missing terminator" `Quick test_verifier_missing_terminator;
    Alcotest.test_case "verifier: phi in entry" `Quick test_verifier_phi_in_entry;
    Alcotest.test_case "verifier: bad branch target" `Quick test_verifier_bad_branch_target;
    Alcotest.test_case "verifier: type mismatch" `Quick test_verifier_type_mismatch;
    Alcotest.test_case "verifier: dominance" `Quick test_verifier_dominance_across_blocks;
    Alcotest.test_case "verifier: valid diamond" `Quick test_verifier_accepts_valid_diamond;
    Alcotest.test_case "verifier: call arity" `Quick test_verifier_call_arity;
    Alcotest.test_case "opcode tables" `Quick test_opcode_tables;
  ]
