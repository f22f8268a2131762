(** Tests for the function-index IR core and the shared analysis
    manager:

    - QCheck invariants of {!Llvmir.Findex} on randomly generated
      kernels (every use resolves to its unique def, and every result
      to its own row);
    - the preserve/invalidate contract: after every pass of the
      default pipeline, manager-maintained analyses are structurally
      identical to analyses rebuilt from scratch;
    - a regression that the manager-driven pipeline produces
      byte-identical IR to running each pass with fresh analyses on
      every workload kernel;
    - the pipeline trace records analysis cache hits;
    - a 300-case differential fuzz batch (seed 42) stays clean. *)

open Llvmir
module Sym = Support.Interner
module K = Workloads.Kernels
module P = Pass

(* ------------------------------------------------------------------ *)
(* Findex invariants                                                  *)
(* ------------------------------------------------------------------ *)

let exception_to_failure name f =
  try f ()
  with e -> QCheck.Test.fail_reportf "%s: %s" name (Printexc.to_string e)

(** Structural invariants of a freshly built index. *)
let check_findex_invariants (f : Lmodule.func) : bool =
  let idx = Findex.build f in
  let n = Findex.n_instrs idx in
  (* layout: arena size matches the function; block_of in range *)
  let listed =
    List.fold_left
      (fun a (b : Lmodule.block) -> a + List.length b.Lmodule.insts)
      0 f.Lmodule.blocks
  in
  if listed <> n then QCheck.Test.fail_reportf "arena size %d <> %d" n listed;
  for k = 0 to n - 1 do
    let i = Findex.instr idx k in
    if Findex.block_of_instr idx k < 0
       || Findex.block_of_instr idx k >= Findex.n_blocks idx
    then QCheck.Test.fail_reportf "instr %d: block out of range" k;
    (* every result is defined by its own row, under its own local id *)
    if not (Sym.is_empty i.Linstr.result) then begin
      if Findex.def idx i.Linstr.result <> Some (Findex.Instr k) then
        QCheck.Test.fail_reportf "def of %%%s is not row %d"
          (Sym.name i.Linstr.result) k;
      if Findex.local_of idx i.Linstr.result <> Findex.local_of_res idx k then
        QCheck.Test.fail_reportf "local id of %%%s differs from row %d's"
          (Sym.name i.Linstr.result) k
    end;
    List.iter
      (function
        | Lvalue.Reg (r, _) -> (
            (* use edge resolves to the unique def *)
            match Findex.def idx r with
            | None ->
                QCheck.Test.fail_reportf "use of %%%s has no def" (Sym.name r)
            | Some (Findex.Param pi) ->
                let p = List.nth f.Lmodule.params pi in
                if not (Sym.equal (Sym.intern p.Lmodule.pname) r) then
                  QCheck.Test.fail_reportf "param def of %%%s is wrong"
                    (Sym.name r)
            | Some (Findex.Instr dk) ->
                if not (Sym.equal (Findex.instr idx dk).Linstr.result r) then
                  QCheck.Test.fail_reportf "instr def of %%%s is wrong"
                    (Sym.name r))
        | _ -> ())
      (Linstr.operands i)
  done;
  true

let lowered_of_kernel (rk : Test_random.rkernel) : Lmodule.t =
  Lowering.Lower.lower_module (Mhir.Canonicalize.run (Test_random.build_module rk))

let prop_findex_invariants =
  QCheck.Test.make ~name:"findex: invariants on random kernels" ~count:20
    Test_random.arb_kernel (fun rk ->
      exception_to_failure "findex invariants" (fun () ->
          let lm = lowered_of_kernel rk in
          List.for_all check_findex_invariants lm.Lmodule.funcs
          &&
          let lm', _ = P.run_pipeline P.default_pipeline lm in
          List.for_all check_findex_invariants lm'.Lmodule.funcs))

(* ------------------------------------------------------------------ *)
(* Preserve/invalidate contract                                       *)
(* ------------------------------------------------------------------ *)

let cfg_equal (a : Cfg.t) (b : Cfg.t) =
  Array.init (Cfg.n_blocks a) (Cfg.label a)
  = Array.init (Cfg.n_blocks b) (Cfg.label b)
  && a.Cfg.succs = b.Cfg.succs
  && a.Cfg.preds = b.Cfg.preds

let findex_equal (a : Findex.t) (b : Findex.t) =
  let names idx =
    let acc = ref [] in
    for k = 0 to Findex.n_instrs idx - 1 do
      let i = Findex.instr idx k in
      if not (Sym.is_empty i.Linstr.result) then acc := i.Linstr.result :: !acc
    done;
    !acc
  in
  Findex.n_instrs a = Findex.n_instrs b
  && Array.init (Findex.n_instrs a) (Findex.instr a)
     = Array.init (Findex.n_instrs b) (Findex.instr b)
  && Array.init (Findex.n_instrs a) (Findex.block_of_instr a)
     = Array.init (Findex.n_instrs b) (Findex.block_of_instr b)
  && List.for_all
       (fun r -> Findex.def a r = Findex.def b r)
       (names a)

(** After every pass + {!Analysis.keep}, a manager-maintained (cached
    and possibly rebased) analysis must be structurally identical to
    one rebuilt from scratch — the soundness of each pass's
    [preserves] declaration. *)
let prop_manager_matches_rebuild =
  QCheck.Test.make ~name:"analysis manager: preserved == rebuilt" ~count:15
    Test_random.arb_kernel (fun rk ->
      exception_to_failure "manager vs rebuild" (fun () ->
          let am = Analysis.create () in
          let m = ref (lowered_of_kernel rk) in
          List.iter
            (fun (p : P.pass) ->
              let m', _ = P.run_pipeline ~am [ p ] !m in
              List.iter
                (fun f ->
                  if not (cfg_equal (Analysis.cfg ~am f) (Cfg.build f)) then
                    QCheck.Test.fail_reportf "pass %s: stale CFG" p.P.name;
                  if
                    not
                      (findex_equal (Analysis.findex ~am f) (Findex.build f))
                  then
                    QCheck.Test.fail_reportf "pass %s: stale findex" p.P.name)
                m'.Lmodule.funcs;
              m := m')
            P.default_pipeline;
          true))

(* ------------------------------------------------------------------ *)
(* Manager-driven pipeline is a pure refactor                         *)
(* ------------------------------------------------------------------ *)

(** The shared-manager pipeline must produce byte-identical IR to
    running every pass with fresh analyses (no caching, nothing
    preserved), on every workload kernel. *)
let test_pipeline_byte_identical () =
  List.iter
    (fun (k : K.kernel) ->
      let m = Mhir.Canonicalize.run (k.K.build K.pipelined) in
      let lm = Lowering.Lower.lower_module ~style:Lowering.Lower.modern m in
      let managed, _ = P.run_pipeline P.default_pipeline lm in
      let fresh =
        List.fold_left
          (fun m (p : P.pass) -> fst (P.run_pipeline [ p ] m))
          lm P.default_pipeline
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: managed pipeline output identical" k.K.kname)
        (Lprinter.module_to_string fresh)
        (Lprinter.module_to_string managed))
    (K.all ())

(** The standard pipeline actually hits the analysis cache. *)
let test_pipeline_cache_hits () =
  let k = List.hd (K.all ()) in
  let m = Mhir.Canonicalize.run (k.K.build K.pipelined) in
  let lm = Lowering.Lower.lower_module ~style:Lowering.Lower.modern m in
  let trace, events = Support.Tracing.collector () in
  ignore (P.run_pipeline ~trace P.default_pipeline lm);
  let hits, computes =
    List.fold_left
      (fun (h, c) (e : Support.Tracing.event) ->
        if e.Support.Tracing.ev_stage <> "analysis" then (h, c)
        else if
          String.length e.Support.Tracing.ev_pass >= 4
          && String.sub e.Support.Tracing.ev_pass
               (String.length e.Support.Tracing.ev_pass - 4)
               4
             = ":hit"
        then (h + 1, c)
        else (h, c + 1))
      (0, 0) (events ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "cache hits recorded (%d hits, %d computes)" hits computes)
    true (hits > 0);
  Alcotest.(check bool) "some analyses are computed" true (computes > 0)

(* ------------------------------------------------------------------ *)
(* Differential fuzz                                                  *)
(* ------------------------------------------------------------------ *)

let test_fuzz_300_clean () =
  let r = Mhls_difftest.Difftest.run_batch ~seed:42 ~count:300 () in
  Alcotest.(check int) "cases run" 300 r.Mhls_difftest.Difftest.r_total;
  Alcotest.(check int) "no mismatches" 0
    (List.length r.Mhls_difftest.Difftest.r_failures)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_findex_invariants;
    QCheck_alcotest.to_alcotest prop_manager_matches_rebuild;
    Alcotest.test_case "pipeline byte-identical" `Quick
      test_pipeline_byte_identical;
    Alcotest.test_case "pipeline cache hits" `Quick test_pipeline_cache_hits;
    Alcotest.test_case "300-case fuzz clean" `Slow test_fuzz_300_clean;
  ]
