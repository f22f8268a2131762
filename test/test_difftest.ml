(** Tests for the differential equivalence harness.

    Three properties: a seeded batch is clean on the current compiler;
    case generation is a pure function of (seed, index) so batches are
    reproducible for any job count; and a deliberately injected bug —
    the old "unsigned compare evaluated as signed" interpreter defect —
    is caught, shrunk and turned into a parseable repro. *)

module F = Mhls_difftest.Difftest
module Spec = Mhls_difftest.Spec
module Rng = Mhls_difftest.Rng

let test_seeded_batch_clean () =
  let r = F.run_batch ~seed:42 ~count:40 () in
  Alcotest.(check int) "cases run" 40 r.F.r_total;
  Alcotest.(check int) "no mismatches" 0 (List.length r.F.r_failures)

let test_deterministic_cases () =
  (* same (seed, index) -> same spec and inputs, independent of any
     other case's stream *)
  List.iter
    (fun index ->
      let a = F.gen_case ~seed:7 ~index in
      let b = F.gen_case ~seed:7 ~index in
      Alcotest.(check bool)
        (Printf.sprintf "case %d reproducible" index)
        true
        (a.F.c_spec = b.F.c_spec
        && a.F.c_ints = b.F.c_ints
        && a.F.c_floats = b.F.c_floats
        && a.F.c_n = b.F.c_n))
    [ 0; 1; 17; 99 ];
  let a = F.gen_case ~seed:7 ~index:0 in
  let b = F.gen_case ~seed:8 ~index:0 in
  Alcotest.(check bool)
    "different seeds give different cases" true
    (a.F.c_spec <> b.F.c_spec || a.F.c_ints <> b.F.c_ints)

let test_jobs_invariance () =
  let r1 = F.run_batch ~seed:11 ~count:12 ~jobs:1 () in
  let r4 = F.run_batch ~seed:11 ~count:12 ~jobs:4 () in
  Alcotest.(check int)
    "same failure count for any job count"
    (List.length r1.F.r_failures)
    (List.length r4.F.r_failures)

(* ------------------------------------------------------------------ *)
(* Injected-bug demonstration                                         *)
(* ------------------------------------------------------------------ *)

(** Re-introduce the fixed interpreter defect at the IR level: evaluate
    every unsigned [ult] as a signed [slt].  Applied to the lowered
    module just before execution via the harness' mutate hook. *)
let resurrect_signed_ult _stage lm =
  let open Llvmir in
  Lmodule.map_funcs
    (Lmodule.rewrite_insts (fun (i : Linstr.t) ->
         [
           (match i.Linstr.op with
           | Linstr.Icmp (Linstr.IUlt, a, b) ->
               { i with Linstr.op = Linstr.Icmp (Linstr.ISlt, a, b) }
           | _ -> i);
         ]))
    lm

(** kernel: a1[i][j] = (a0[i][j] `ult` 0) ? 1 : 2 — with negative
    inputs the unsigned compare is always false (store 2), the signed
    one true (store 1): a deterministic divergence. *)
let ult_spec =
  {
    Spec.dim = 2;
    istore =
      Spec.ISel (Spec.CUlt, Spec.ILoad false, Spec.IConst 0, Spec.IConst 1,
                 Spec.IConst 2);
    fstore = Spec.FConst 0.0;
    ired = None;
    helper = None;
  }

let ult_case =
  {
    F.c_spec = ult_spec;
    c_ints = Array.make F.input_slots (-5);
    c_floats = Array.make F.input_slots 0.0;
    c_n = 0;
  }

let test_injected_bug_caught () =
  (* sanity: the unmutated stack agrees on this case *)
  (match F.run_case ult_case with
  | None -> ()
  | Some (st, d) ->
      Alcotest.fail (Printf.sprintf "clean run diverged at %s: %s" st d));
  match F.run_case ~mutate:resurrect_signed_ult ~stages:[ F.Lower ] ult_case with
  | Some ("lower", detail) ->
      Alcotest.(check bool)
        "mismatch names an int output" true
        (String.length detail > 0)
  | Some (st, d) ->
      Alcotest.fail (Printf.sprintf "diverged at %s instead of lower: %s" st d)
  | None -> Alcotest.fail "injected signed-ult bug was not detected"

let test_injected_bug_shrinks_to_repro () =
  let first =
    match
      F.run_case ~mutate:resurrect_signed_ult ~stages:[ F.Lower ] ult_case
    with
    | Some f -> f
    | None -> Alcotest.fail "injected bug not detected"
  in
  let shrunk, (stage, _detail) =
    F.shrink_case ~mutate:resurrect_signed_ult ~stages:[ F.Lower ] ult_case
      first
  in
  Alcotest.(check string) "still fails at the lowering stage" "lower" stage;
  Alcotest.(check bool)
    "shrinking never grows the spec" true
    (Spec.size shrunk.F.c_spec <= Spec.size ult_case.F.c_spec);
  (* the emitted repro is self-contained: it parses and verifies *)
  let failure =
    {
      F.f_index = 0;
      f_seed = 0;
      f_case = shrunk;
      f_orig_size = Spec.size ult_case.F.c_spec;
      f_stage = stage;
      f_detail = "demo";
    }
  in
  let text = F.repro_text failure in
  let m = Mhir.Parser.parse_module text in
  Mhir.Verifier.verify_module m;
  Alcotest.(check bool)
    "repro module has the kernel" true
    (Mhir.Ir.find_func m "kernel" <> None)

let suite =
  [
    Alcotest.test_case "seeded batch is clean" `Quick test_seeded_batch_clean;
    Alcotest.test_case "cases are (seed, index)-deterministic" `Quick
      test_deterministic_cases;
    Alcotest.test_case "reports invariant under --jobs" `Quick
      test_jobs_invariance;
    Alcotest.test_case "injected signed-ult bug is caught" `Quick
      test_injected_bug_caught;
    Alcotest.test_case "injected bug shrinks to a parseable repro" `Quick
      test_injected_bug_shrinks_to_repro;
  ]
