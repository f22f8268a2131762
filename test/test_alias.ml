(** Tests for the static-analysis layer behind the parallel pipeline:

    - directed and QCheck-property tests of the {!Llvmir.Alias}
      oracle (symmetry, reflexivity, refinement of the base-region
      verdict, alloca/global/param separation);
    - a golden test of {!Llvmir.Effects} summaries on a
      multi-function module with a call chain and a global;
    - {!Llvmir.Parsafe} positive and negative verdicts, including the
      JSON rendering and the all-kernels-safe sweep on adapted IR;
    - byte-identity of {!Llvmir.Pass.run_pipeline_parallel} against
      the sequential pipeline on the synthetic many-function module,
      and its fallback on a conflicting module. *)

open Llvmir
module Sym = Support.Interner
module K = Workloads.Kernels
module P = Pass

let parse text =
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  m

let parse_fn text = List.hd (parse text).Lmodule.funcs

(* ------------------------------------------------------------------ *)
(* Alias: directed cases                                              *)
(* ------------------------------------------------------------------ *)

(* every root kind in one function: two array params, an alloca, a
   global, a phi-derived (unknown) pointer, and GEPs at known deltas *)
let roots_fn =
  {|@G = global i64 0
define void @k([64 x float]* %A, [64 x float]* %B, i64 %i, i1 %c) {
entry:
  %loc = alloca i64
  %pa = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %i
  %im1 = sub i64 %i, 1
  %pa1 = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %im1
  %pa2 = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %i
  %pb = getelementptr inbounds [64 x float], [64 x float]* %B, i64 0, i64 %i
  br i1 %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  %phi = phi [64 x float]* [ %A, %l ], [ %B, %r ]
  %pp = getelementptr inbounds [64 x float], [64 x float]* %phi, i64 0, i64 %i
  %v = load float, float* %pa
  store float %v, float* %pb
  ret void
}|}

let with_roots (f : Lmodule.func -> Findex.t -> unit) =
  let m = parse roots_fn in
  let fn = List.hd m.Lmodule.funcs in
  f fn (Findex.build fn)

let reg idx name =
  ignore idx;
  Lvalue.Reg (Sym.intern name, Ltype.Ptr (Some Ltype.Float))

let check_verdict msg expected actual =
  Alcotest.(check string) msg
    (Alias.verdict_to_string expected)
    (Alias.verdict_to_string actual)

let test_alias_directed () =
  with_roots (fun _ idx ->
      let p n = reg idx n in
      (* distinct params never alias (HLS interface contract) *)
      check_verdict "A vs B params" Alias.No_alias
        (Alias.alias idx (p "pa") (p "pb"));
      (* alloca vs global: distinct known roots *)
      check_verdict "alloca vs global" Alias.No_alias
        (Alias.alias idx
           (Lvalue.Reg (Sym.intern "loc", Ltype.Ptr (Some Ltype.I64)))
           (Lvalue.Global (Sym.intern "G", Ltype.Ptr (Some Ltype.I64))));
      (* same array, same subscript via distinct GEPs: must-alias *)
      check_verdict "A[i] vs A[i] (two geps)" Alias.Must_alias
        (Alias.alias idx (p "pa") (p "pa2"));
      (* same array, constant-delta subscripts: provably distinct
         addresses at one instant *)
      check_verdict "A[i] vs A[i-1] point" Alias.No_alias
        (Alias.alias idx (p "pa") (p "pa1"));
      (* ...but the base regions must still collide for dependence
         analysis: base_alias answers the region question *)
      check_verdict "A[i] vs A[i-1] base" Alias.Must_alias
        (Alias.base_alias idx (p "pa") (p "pa1"));
      (* phi-derived pointer: unknown root, may alias either array *)
      check_verdict "phi vs A" Alias.May_alias
        (Alias.alias idx (p "pp") (p "pa"));
      check_verdict "phi vs B base" Alias.May_alias
        (Alias.base_alias idx (p "pp") (p "pb")))

let test_alias_same_reg () =
  with_roots (fun _ idx ->
      check_verdict "a pointer must-aliases itself" Alias.Must_alias
        (Alias.alias idx (reg idx "pp") (reg idx "pp")))

(* ------------------------------------------------------------------ *)
(* Alias: QCheck properties on random kernels                         *)
(* ------------------------------------------------------------------ *)

let exception_to_failure name f =
  try f ()
  with e -> QCheck.Test.fail_reportf "%s: %s" name (Printexc.to_string e)

let lowered_of_kernel (rk : Test_random.rkernel) : Lmodule.t =
  Lowering.Lower.lower_module
    (Mhir.Canonicalize.run (Test_random.build_module rk))

(** All load/store pointer operands of a function. *)
let pointers_of (f : Lmodule.func) : Lvalue.t list =
  List.rev
    (Lmodule.fold_insts
       (fun acc (i : Linstr.t) ->
         match i.Linstr.op with
         | Linstr.Load (_, p) | Linstr.Store (_, p) -> p :: acc
         | _ -> acc)
       [] f)

let check_pair_invariants (idx : Findex.t) p q =
  let v_pq = Alias.alias idx p q in
  let v_qp = Alias.alias idx q p in
  let b_pq = Alias.base_alias idx p q in
  let b_qp = Alias.base_alias idx q p in
  (* both oracles are symmetric *)
  if v_pq <> v_qp then
    QCheck.Test.fail_reportf "alias not symmetric: %s vs %s"
      (Alias.verdict_to_string v_pq)
      (Alias.verdict_to_string v_qp);
  if b_pq <> b_qp then
    QCheck.Test.fail_reportf "base_alias not symmetric: %s vs %s"
      (Alias.verdict_to_string b_pq)
      (Alias.verdict_to_string b_qp);
  (* point-alias refines the base verdict: disjoint regions can hold
     no common address, and a must-aliased address needs a shared
     region *)
  if b_pq = Alias.No_alias && v_pq <> Alias.No_alias then
    QCheck.Test.fail_reportf "base no-alias but point %s"
      (Alias.verdict_to_string v_pq);
  if v_pq = Alias.Must_alias && b_pq <> Alias.Must_alias then
    QCheck.Test.fail_reportf "point must-alias but base %s"
      (Alias.verdict_to_string b_pq)

let prop_alias_invariants =
  QCheck.Test.make ~name:"alias: symmetry + base refinement" ~count:20
    Test_random.arb_kernel (fun rk ->
      exception_to_failure "alias invariants" (fun () ->
          let lm = lowered_of_kernel rk in
          List.iter
            (fun f ->
              let idx = Findex.build f in
              let ptrs = pointers_of f in
              List.iter
                (fun p ->
                  if Alias.alias idx p p <> Alias.Must_alias then
                    QCheck.Test.fail_reportf "p not must-alias with itself";
                  List.iter (check_pair_invariants idx p) ptrs)
                ptrs)
            lm.Lmodule.funcs;
          true))

(* ------------------------------------------------------------------ *)
(* Effects: golden summary                                            *)
(* ------------------------------------------------------------------ *)

let effects_module =
  {|@g = global i64 0
declare void @mystery(i64)
define void @helper([64 x float]* %A, [64 x float]* %B) {
entry:
  %p = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 1
  %v = load float, float* %p
  %q = getelementptr inbounds [64 x float], [64 x float]* %B, i64 0, i64 2
  store float %v, float* %q
  ret void
}
define void @top([64 x float]* %X, [64 x float]* %Y) {
entry:
  call void @helper([64 x float]* %X, [64 x float]* %Y)
  %gv = load i64, i64* @g
  store i64 %gv, i64* @g
  ret void
}
define void @open_fn(i64 %n) {
entry:
  call void @mystery(i64 %n)
  ret void
}|}

let test_effects_golden () =
  let m = parse effects_module in
  let eff = Effects.summarize m in
  Alcotest.(check string)
    "module effect summary"
    "helper: params [A:read B:write] globals [] unknown []\n\
     top: params [X:read Y:write] globals [g:readwrite] unknown []\n\
     open_fn: params [] globals [] unknown [mystery]\n"
    (Effects.to_string m eff)

let test_effects_closed () =
  let m = parse effects_module in
  let eff = Effects.summarize m in
  let fp name = Option.get (Effects.footprint eff name) in
  Alcotest.(check bool) "helper closed" true (Effects.closed (fp "helper"));
  Alcotest.(check bool) "top closed (call chain attributed)" true
    (Effects.closed (fp "top"));
  Alcotest.(check bool) "open_fn open" false (Effects.closed (fp "open_fn"))

(** The analysis manager caches the summary per module value and keeps
    it across Effects-preserving passes. *)
let test_effects_cached () =
  let m = parse effects_module in
  let am = Analysis.create () in
  let e1 = Analysis.effects ~am m in
  let e2 = Analysis.effects ~am m in
  Alcotest.(check bool) "second query hits the cache" true (e1 == e2)

(* ------------------------------------------------------------------ *)
(* Parsafe                                                            *)
(* ------------------------------------------------------------------ *)

let test_parsafe_safe () =
  let m = Mhls_driver.Synth.many_kernels ~n:6 in
  Alcotest.(check string) "independent kernels are safe" "safe"
    (Parsafe.verdict_to_string (Parsafe.check m))

let test_parsafe_single_function () =
  let m = parse roots_fn in
  Alcotest.(check string) "single function always safe" "safe"
    (Parsafe.verdict_to_string (Parsafe.check m))

let test_parsafe_shared_global () =
  let m = Mhls_driver.Synth.shared_global_writers () in
  match Parsafe.check m with
  | Parsafe.Safe -> Alcotest.fail "shared-global writers must be unsafe"
  | Parsafe.Unsafe cs ->
      Alcotest.(check bool) "write-write conflict on @acc reported" true
        (List.exists
           (function
             | Parsafe.Global_write_write (_, _, "acc") -> true
             | _ -> false)
           cs);
      Alcotest.(check string) "json verdict"
        "{\"verdict\": \"unsafe\", \"conflicts\": [{\"kind\": \
         \"write-write\", \"a\": \"bump_a\", \"b\": \"bump_b\", \"global\": \
         \"acc\"}]}"
        (Parsafe.to_json (Parsafe.Unsafe cs))

let test_parsafe_unknown_effects () =
  let m = parse effects_module in
  match Parsafe.check m with
  | Parsafe.Safe -> Alcotest.fail "open footprint must be unsafe"
  | Parsafe.Unsafe cs ->
      Alcotest.(check bool) "unknown-effects conflict for open_fn" true
        (List.exists
           (function
             | Parsafe.Unknown_effects ("open_fn", _) -> true
             | _ -> false)
           cs)

(** Every built-in kernel, adapted for HLS, is statically race-free —
    the property that lets the managed pipeline parallelize them. *)
let test_parsafe_all_kernels_safe () =
  List.iter
    (fun (k : K.kernel) ->
      match Flow.direct_ir_frontend (k.K.build K.no_directives) with
      | Error ds -> Alcotest.fail (Support.Diag.render ds)
      | Ok (lm, _, _) ->
          Alcotest.(check string)
            (Printf.sprintf "%s adapted IR is parallel-safe" k.K.kname)
            "safe"
            (Parsafe.verdict_to_string (Parsafe.check lm)))
    (K.all ())

(* ------------------------------------------------------------------ *)
(* Parallel pipeline                                                  *)
(* ------------------------------------------------------------------ *)

let test_split_func_local () =
  let prologue, tail = P.split_func_local P.default_pipeline in
  Alcotest.(check (list string))
    "prologue is the module-level inline"
    [ "inline" ]
    (List.map (fun (p : P.pass) -> p.P.name) prologue);
  Alcotest.(check int) "everything after inline is function-local" 8
    (List.length tail)

let print m = Lprinter.module_to_string m

let test_parallel_byte_identical () =
  let m = Mhls_driver.Synth.many_kernels ~n:30 in
  let seq, _ = P.run_pipeline P.default_pipeline m in
  List.iter
    (fun jobs ->
      let par, _, status =
        P.run_pipeline_parallel
          ~fanout:(Mhls_driver.Pool.fanout ~jobs)
          P.default_pipeline m
      in
      (match (jobs, status) with
      | 1, P.Fell_back _ -> ()
      | 1, P.Ran_parallel _ -> Alcotest.fail "jobs=1 must not fan out"
      | _, P.Ran_parallel n -> Alcotest.(check int) "all functions fanned" 30 n
      | _, P.Fell_back why -> Alcotest.fail ("unexpected fallback: " ^ why));
      Alcotest.(check string)
        (Printf.sprintf "parallel output identical at jobs=%d" jobs)
        (print seq) (print par))
    [ 1; 4 ]

let test_parallel_falls_back_on_conflict () =
  let m = Mhls_driver.Synth.shared_global_writers () in
  let seq, _ = P.run_pipeline P.default_pipeline m in
  let par, _, status =
    P.run_pipeline_parallel
      ~fanout:(Mhls_driver.Pool.fanout ~jobs:4)
      P.default_pipeline m
  in
  (match status with
  | P.Fell_back why ->
      Alcotest.(check bool) "reason names the conflicting global" true
        (Str_find.contains why "@acc")
  | P.Ran_parallel _ -> Alcotest.fail "conflicting module must fall back");
  Alcotest.(check string) "fallback output identical" (print seq) (print par)

let test_parallel_inline_fanout () =
  (* the library's own sequential stand-in also falls back (jobs = 1) *)
  let m = Mhls_driver.Synth.many_kernels ~n:4 in
  let _, _, status =
    P.run_pipeline_parallel ~fanout:P.inline_fanout P.default_pipeline m
  in
  match status with
  | P.Fell_back _ -> ()
  | P.Ran_parallel _ -> Alcotest.fail "inline fanout must stay sequential"

(* A module verified under a manager, then run in parallel under it:
   the coordinator's effects summary and prologue reuse the indexes
   the verifier built, so it computes none, and the output is the
   sequential pipeline's *)
let test_parallel_reuses_manager () =
  let events = ref [] in
  let trace (e : Support.Tracing.event) = events := e.Support.Tracing.ev_pass :: !events in
  let count pass = List.length (List.filter (( = ) pass) !events) in
  let m = Mhls_driver.Synth.many_kernels ~n:12 in
  let am = Analysis.create ~trace () in
  Lverifier.verify_module ~am m;
  Alcotest.(check int) "the verifier indexed every function" 12 (count "findex:compute");
  events := [];
  let par, _, status =
    P.run_pipeline_parallel ~am
      ~fanout:(Mhls_driver.Pool.fanout ~jobs:4)
      P.default_pipeline m
  in
  (match status with
  | P.Ran_parallel n -> Alcotest.(check int) "all functions fanned" 12 n
  | P.Fell_back why -> Alcotest.fail ("unexpected fallback: " ^ why));
  (* the summary behind the verdict was made under [am], from its
     indexes *)
  Alcotest.(check int) "effects summarized under the manager" 1 (count "effects:compute");
  Alcotest.(check int) "no index computed by the coordinator" 0 (count "findex:compute");
  Alcotest.(check bool) "the verifier's indexes reused" true (count "findex:hit" > 0);
  Alcotest.(check string) "parallel output identical"
    (print (fst (P.run_pipeline P.default_pipeline m)))
    (print par)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "alias: directed root/GEP cases" `Quick
      test_alias_directed;
    Alcotest.test_case "alias: same register" `Quick test_alias_same_reg;
    QCheck_alcotest.to_alcotest prop_alias_invariants;
    Alcotest.test_case "effects: golden summary" `Quick test_effects_golden;
    Alcotest.test_case "effects: closedness" `Quick test_effects_closed;
    Alcotest.test_case "effects: manager cache" `Quick test_effects_cached;
    Alcotest.test_case "parsafe: independent kernels safe" `Quick
      test_parsafe_safe;
    Alcotest.test_case "parsafe: single function safe" `Quick
      test_parsafe_single_function;
    Alcotest.test_case "parsafe: shared-global writers unsafe" `Quick
      test_parsafe_shared_global;
    Alcotest.test_case "parsafe: open footprint unsafe" `Quick
      test_parsafe_unknown_effects;
    Alcotest.test_case "parsafe: all kernels safe (adapted IR)" `Quick
      test_parsafe_all_kernels_safe;
    Alcotest.test_case "pipeline: prologue/tail split" `Quick
      test_split_func_local;
    Alcotest.test_case "pipeline: parallel byte-identical" `Quick
      test_parallel_byte_identical;
    Alcotest.test_case "pipeline: falls back on conflict" `Quick
      test_parallel_falls_back_on_conflict;
    Alcotest.test_case "pipeline: inline fanout sequential" `Quick
      test_parallel_inline_fanout;
    Alcotest.test_case "pipeline: coordinator reuses am" `Quick
      test_parallel_reuses_manager;
  ]
