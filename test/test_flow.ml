(** End-to-end flow tests: co-simulation of both flows against the
    OCaml references under several directive sets, and the paper's
    headline comparability property. *)

module K = Workloads.Kernels
module B = Hls_backend.Backend
module E = Hls_backend.Estimate

let directive_sets =
  [
    ("no-directives", K.no_directives);
    ("inner-pipeline", K.pipelined);
    ("inner-pipeline-unroll2", { K.pipelined with K.unroll = Some 2 });
    ("optimized", K.optimized ~factor:4 ~parts:[ ("A", 2) ] ());
  ]

let test_cosim_all_kernels_all_directives () =
  List.iter
    (fun k ->
      List.iter
        (fun (dname, d) ->
          (* partitions reference "A"; skip sets that name absent args *)
          let ok_args =
            List.for_all
              (fun (a, _, _, _) -> List.mem_assoc a k.K.args)
              d.K.partitions
          in
          if ok_args then begin
            let cs = Flow.cosim ~directives:d k in
            if not cs.Flow.ok then
              Alcotest.failf "%s/%s: %s" k.K.kname dname
                (match cs.Flow.details with d :: _ -> d | [] -> "?")
          end)
        directive_sets)
    (K.all ())

let test_both_flows_synthesize_everything () =
  List.iter
    (fun k ->
      List.iter
        (fun (c : Flow.result) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s/%s latency positive" k.K.kname
               (Flow.flow_name c.Flow.kind) (B.sched_name c.Flow.sched))
            true
            (c.Flow.hls.E.latency > 0))
        (Flow.compare_flows k))
    (K.all ())

let test_comparable_performance () =
  (* the paper's headline: QoR through the adaptor flow is comparable
     to the HLS C++ flow — within 25% on every kernel *)
  List.iter
    (fun k ->
      let c = Flow.compare_flows k in
      let ratio = Flow.latency_ratio c in
      Alcotest.(check bool)
        (Printf.sprintf "%s ratio %.3f within [0.75, 1.33]" k.K.kname ratio)
        true
        (ratio > 0.75 && ratio < 1.33))
    (K.all ())

let test_adaptor_report_attached () =
  let r = Flow.run_exn (K.gemm ()) Flow.Direct_ir in
  match r.Flow.adaptor_report with
  | Some rep ->
      Alcotest.(check bool) "issues found before" true
        (rep.Adaptor.issues_before <> []);
      Alcotest.(check int) "no issues after" 0 (List.length rep.Adaptor.issues_after)
  | None -> Alcotest.fail "direct flow must carry an adaptor report"

let test_cpp_source_attached () =
  let r = Flow.run_exn (K.gemm ()) Flow.Hls_cpp in
  match r.Flow.cpp_source with
  | Some src -> Alcotest.(check bool) "has C++ text" true (Str_find.contains src "void gemm")
  | None -> Alcotest.fail "cpp flow must carry its source"

let test_partition_sweep_monotonic () =
  (* Figure 3's shape: increasing the partition factor must never
     increase adaptor-flow latency, and II must reach 1 at factor 8 *)
  let latencies =
    List.map
      (fun factor ->
        let d = K.optimized ~factor ~parts:[ ("A", 2); ("B", 1) ] () in
        let r = Flow.run_exn ~directives:d (K.gemm ()) Flow.Direct_ir in
        r.Flow.hls.E.latency)
      [ 1; 2; 4; 8 ]
  in
  let rec monotonic = function
    | a :: (b :: _ as tl) -> a >= b && monotonic tl
    | _ -> true
  in
  Alcotest.(check bool) "latency non-increasing in factor" true
    (monotonic latencies)

let test_flat_ablation_ignores_partitioning () =
  (* without delinearization the partition directive cannot help *)
  let lat factor =
    let d = K.optimized ~factor ~parts:[ ("A", 2); ("B", 1) ] () in
    let m = (K.gemm ()).K.build d in
    let lm, _, _ =
      Flow_util.frontend_exn ~pipeline:Adaptor.Pipeline.flat_views m
    in
    (B.synthesize ~top:"gemm" lm).E.latency
  in
  Alcotest.(check int) "factor has no effect on the flat view" (lat 1) (lat 8)

let test_adaptor_beats_flat_ablation () =
  let d = K.optimized ~factor:8 ~parts:[ ("A", 2); ("B", 1) ] () in
  let full = Flow.run_exn ~directives:d (K.gemm ()) Flow.Direct_ir in
  let m = (K.gemm ()).K.build d in
  let lm, _, _ = Flow_util.frontend_exn ~pipeline:Adaptor.Pipeline.flat_views m in
  let flat = B.synthesize ~top:"gemm" lm in
  Alcotest.(check bool) "delinearization pays off" true
    (full.Flow.hls.E.latency * 2 < flat.E.latency)

let test_no_descriptor_ablation_rejected () =
  let m = (K.gemm ()).K.build K.pipelined in
  let lm, _, _ =
    Flow_util.frontend_exn
      ~pipeline:Adaptor.Pipeline.no_descriptor_elimination m
  in
  Alcotest.(check bool) "descriptor IR rejected by the tool" true
    (try
       ignore (B.synthesize ~top:"gemm" lm);
       false
     with E.Rejected _ -> true)

let test_compile_times_recorded () =
  List.iter
    (fun (c : Flow.result) ->
      Alcotest.(check bool)
        (Flow.flow_name c.Flow.kind ^ " time recorded")
        true (c.Flow.seconds >= 0.0))
    (Flow.compare_flows (K.gemm ()))

(* The adaptor runs through the pass manager, so its events carry the
   allocation figures the cleanup pipeline's events carry. *)
let test_adaptor_events_allocate () =
  let trace, events = Support.Tracing.collector () in
  ignore (Flow.run_exn ~trace (K.gemm ()) Flow.Direct_ir);
  let adaptor =
    List.filter
      (fun (e : Support.Tracing.event) -> e.ev_stage = "adaptor")
      (events ())
  in
  Alcotest.(check (list string))
    "one event per adaptor pass"
    (Adaptor.Pipeline.enabled_names Adaptor.Pipeline.default)
    (List.map (fun (e : Support.Tracing.event) -> e.ev_pass) adaptor);
  List.iter
    (fun (e : Support.Tracing.event) ->
      Alcotest.(check bool)
        (e.ev_pass ^ " reports minor words")
        true (e.ev_minor_words > 0.))
    adaptor

(* The bytes `mhlsc compare gemm` prints, with the wall-clock row
   masked. *)
let golden_compare_gemm =
  {golden|                direct-IR      HLS C++   direct/dyn      cpp/dyn
latency             18740        18740         2138         2142
BRAM                    3            3            3            3
DSP                     5            5            5            5
time (ms)
latency ratio (cpp/direct): 1.000
|golden}

let test_compare_grid_bytes () =
  let c =
    Mhls_cli.Handlers.compare_kernel ~kernel:"gemm"
      ~directives:Mhls_serve.Protocol.pipelined_directives ~clock_ns:10.0
  in
  match c with
  | Error _ -> Alcotest.fail "compare gemm failed"
  | Ok c ->
      let masked =
        String.split_on_char '\n' (Mhls_cli.Render.compare c)
        |> List.map (fun l ->
               if String.starts_with ~prefix:"time (ms)" l then "time (ms)" else l)
        |> String.concat "\n"
      in
      Alcotest.(check string) "compare gemm bytes" golden_compare_gemm masked

(* One analysis manager per job: mem2reg reuses the index the
   front-end's verifier built, the estimator reuses the index and CFG
   the last verification built, and every index the job builds is a
   traced compute.  A pass's or the estimator's own queries are the
   last ones before its event (the estimator asks for the CFG, the
   loop nest, then the index). *)
let test_one_manager_per_job () =
  let k = Option.get (K.by_name "gemm") in
  List.iter
    (fun (kind, computes) ->
      let hook, events = Support.Tracing.collector () in
      ignore (Flow.run_exn ~trace:hook k kind);
      let evs = events () in
      let name = Flow.flow_name kind in
      let pass (e : Support.Tracing.event) = e.Support.Tracing.ev_pass in
      let is_query (e : Support.Tracing.event) =
        e.Support.Tracing.ev_stage = "analysis"
      in
      (* the queries between the previous stage or pass event and the
         first event [is_end] accepts, latest first *)
      let queries_of what is_end =
        let rec go acc = function
          | [] -> Alcotest.failf "%s: no %s event" name what
          | e :: rest ->
              if is_end e then acc
              else go (if is_query e then pass e :: acc else []) rest
        in
        go [] evs
      in
      (* is the latest query of this analysis a hit? *)
      let hit kind qs =
        List.find_opt (String.starts_with ~prefix:(kind ^ ":")) qs
        = Some (kind ^ ":hit")
      in
      let mem2reg =
        queries_of "mem2reg" (fun e ->
            e.Support.Tracing.ev_stage = "llvm-opt" && pass e = "mem2reg")
      in
      Alcotest.(check bool) (name ^ ": mem2reg's index is a hit") true
        (hit "findex" mem2reg);
      let estimator =
        queries_of "estimator" (fun e -> e.Support.Tracing.ev_stage = "hls")
      in
      Alcotest.(check bool) (name ^ ": estimator's index is a hit") true
        (hit "findex" estimator);
      Alcotest.(check bool) (name ^ ": estimator's CFG is a hit") true
        (hit "cfg" estimator);
      (* the adaptor's passes carry the CFG and dominator tree through
         their mid-pass cleanup DCEs, so the final adaptor verify (the
         first queries of the window) only reads them *)
      if kind = Flow.Direct_ir then begin
        let shaped =
          List.filter
            (fun q ->
              String.starts_with ~prefix:"cfg:" q
              || String.starts_with ~prefix:"dominance:" q)
            estimator
        in
        Alcotest.(check (list string))
          (name ^ ": CFG and dominator tree after the adaptor")
          (List.map
             (fun q -> String.sub q 0 (String.index q ':') ^ ":hit")
             shaped)
          shaped;
        Alcotest.(check bool) (name ^ ": the final verify asks") true
          (List.length shaped >= 4)
      end;
      Alcotest.(check int)
        (name ^ ": index builds")
        computes
        (List.length
           (List.filter (fun e -> is_query e && pass e = "findex:compute") evs)))
    [ (Flow.Direct_ir, 7); (Flow.Hls_cpp, 4) ]

(* ------------------------------------------------------------------ *)
(* IR text digests                                                    *)
(* ------------------------------------------------------------------ *)

(* MD5 of [mhlsc emit K --stage S] (default directives) for the 14
   kernels and the three printed IR stages.  The report digests cover
   QoR but no register, label or function name; these pin the names
   every pass and the C++ front end make.  Update only with an
   intentional change to the printed IR. *)
let ir_digests =
  [
    ("gemm/llvm", "e8eaa0ffa9015042f1876daeb6604c06");
    ("gemm/adapted", "29333aca324efdc3755cb2157e411bb0");
    ("gemm/cpp", "98c5d14fb336c55e8ae0a7db9fbebc26");
    ("mm2/llvm", "f9942cec00353464661a258f37be6b06");
    ("mm2/adapted", "8530f6a0fb4501e671ed9ec65c696bd4");
    ("mm2/cpp", "12755bbdfed88f666ad98a49c82d8c54");
    ("mm3/llvm", "0122fb4952c6fe3ac5dd493633495643");
    ("mm3/adapted", "93da68dee12a972fdabb8b380e8cf3db");
    ("mm3/cpp", "d43b409335162351bbaaa742da6a280b");
    ("atax/llvm", "4c3895de1b332d0f3263a85a5972df09");
    ("atax/adapted", "65a6e80da31f1f4c323b6b4717dee2f2");
    ("atax/cpp", "f78555148cbe41a372d2f63d2bc77848");
    ("bicg/llvm", "d167f8648dc487af8812b8da46d64156");
    ("bicg/adapted", "5b37b34eb43b4569e2e63426f5cbf4fc");
    ("bicg/cpp", "6a49223d8338b2140bad620e22aa2875");
    ("mvt/llvm", "e99789c5c96b87cf5b3e42501242b5fd");
    ("mvt/adapted", "ea6d367d291f60086568d238cad4173c");
    ("mvt/cpp", "c645c8db1631eb34b8fd8ac554d61e66");
    ("gesummv/llvm", "3faf4427cb01f43dff47bb49fb6d7900");
    ("gesummv/adapted", "8e0c4f6cae611d34c7faa1794dd0f903");
    ("gesummv/cpp", "3c1e8f1eeb228f8a5343182b3695fdbc");
    ("fir/llvm", "3d255334637db25e6080c914ee47db81");
    ("fir/adapted", "e68d9041f8112ea2284492565a0f1084");
    ("fir/cpp", "b6c62b7b9f5fcfeed6a8bf1cadbc40aa");
    ("conv2d/llvm", "5c42afcfee766e41d317eb643beadc99");
    ("conv2d/adapted", "59ae03296f4619ff1aa6af622de47228");
    ("conv2d/cpp", "31478ffc8c940056c5f714ad1cce1033");
    ("jacobi2d/llvm", "f6d282e3acb8b42aa4c67c4d60223fcd");
    ("jacobi2d/adapted", "1ad9c4c5773595aaa6f4c9b574ff974e");
    ("jacobi2d/cpp", "8b9a66f91071bc64519a95928a4fd277");
    ("syrk/llvm", "ccf3da7ad97b3e436acbf54a35306e5b");
    ("syrk/adapted", "0af7d7ac200b0753a9c122f2417414b7");
    ("syrk/cpp", "17432a066528150884b511244e95dd1e");
    ("doitgen/llvm", "9f3c0c7b99bf645979560e963ab7c2e8");
    ("doitgen/adapted", "08d3ab23c6a0b634d1d25f45258513d0");
    ("doitgen/cpp", "89c85c927ac6a1001aba3558362b8c41");
    ("seidel2d/llvm", "61604c10f2e3daff018ab87615b2c595");
    ("seidel2d/adapted", "6f6748be096394e3f03e1f8349c7c682");
    ("seidel2d/cpp", "207fae27a3fe2c70a6f4966623e11040");
    ("mmcall/llvm", "877cc304b13a2a18d44ed47b113a0846");
    ("mmcall/adapted", "beb989c65512da664b4f028f618cbdf7");
    ("mmcall/cpp", "73be53293c4d85f46aa2ae88c7de7604");
  ]

let ir_stages =
  [ ("llvm", Mhls_cli.Handlers.Llvm); ("adapted", Mhls_cli.Handlers.Adapted);
    ("cpp", Mhls_cli.Handlers.Cpp) ]

let ir_digest kernel (sname, stage) =
  match
    Mhls_cli.Handlers.emit ~kernel ~stage
      ~directives:Mhls_serve.Protocol.pipelined_directives
  with
  | Ok text -> (kernel ^ "/" ^ sname, Digest.to_hex (Digest.string text))
  | Error _ -> Alcotest.failf "emit %s --stage %s failed" kernel sname

(* Interned ids follow what the process compiled first; the printed
   names must not.  So the texts are made twice, the second time in
   the reverse order, and both must give the pinned digests. *)
let test_ir_digests () =
  let kernels = List.map (fun k -> k.K.kname) (K.all ()) in
  let forward =
    List.concat_map (fun k -> List.map (ir_digest k) ir_stages) kernels
  in
  let backward =
    List.concat_map (fun k -> List.map (ir_digest k) (List.rev ir_stages)) (List.rev kernels)
  in
  Alcotest.(check int) "every kernel and stage pinned" (List.length ir_digests)
    (List.length forward);
  List.iter
    (fun (key, got) ->
      Alcotest.(check (option string)) (key ^ " digest") (List.assoc_opt key ir_digests)
        (Some got))
    (forward @ backward)

(* ------------------------------------------------------------------ *)
(* No dead code after cleanup                                         *)
(* ------------------------------------------------------------------ *)

(* The results of the rows of [f] that no side effect needs, by a
   liveness oracle of its own: every row that is not pure is live, and
   so is the definition of every register a live row reads. *)
let dead_rows (f : Llvmir.Lmodule.func) =
  let open Llvmir in
  let defs = Hashtbl.create 64 and live = Hashtbl.create 64 in
  Lmodule.iter_insts
    (fun (i : Linstr.t) -> Hashtbl.replace defs i.Linstr.result i)
    f;
  let rec need (i : Linstr.t) =
    List.iter
      (function
        | Lvalue.Reg (r, _) when not (Hashtbl.mem live r) ->
            Hashtbl.replace live r ();
            Option.iter need (Hashtbl.find_opt defs r)
        | _ -> ())
      (Linstr.operands i)
  in
  Lmodule.iter_insts (fun i -> if not (Linstr.is_pure i) then need i) f;
  Lmodule.fold_insts
    (fun acc (i : Linstr.t) ->
      if Linstr.is_pure i && not (Hashtbl.mem live i.Linstr.result) then
        Support.Interner.name i.Linstr.result :: acc
      else acc)
    [] f

let test_no_dead_code_after_cleanup () =
  List.iter
    (fun (k : K.kernel) ->
      List.iter
        (fun (label, directives) ->
          List.iter
            (fun flow ->
              let what =
                Printf.sprintf "%s/%s/%s" k.K.kname (Flow.flow_name flow) label
              in
              match Flow.run ~directives k flow with
              | Error _ -> Alcotest.failf "%s: flow failed" what
              | Ok r ->
                  List.iter
                    (fun (f : Llvmir.Lmodule.func) ->
                      match dead_rows f with
                      | [] -> ()
                      | dead ->
                          Alcotest.failf "%s @%s: %d dead rows (%%%s)" what
                            f.Llvmir.Lmodule.fname (List.length dead)
                            (String.concat ", %" dead))
                    r.Flow.llvm.Llvmir.Lmodule.funcs)
            [ Flow.Direct_ir; Flow.Hls_cpp ])
        Mhls_driver.Driver.default_grid)
    (K.all ())

(* mem2reg places a phi only where its slot is live-in, so by the
   oracle above none of the phis it writes is dead, on either flow's
   input to it *)
let test_mem2reg_no_dead_phi () =
  let open Llvmir in
  List.iter
    (fun (k : K.kernel) ->
      List.iter
        (fun (label, directives) ->
          let m = Mhir.Canonicalize.run (k.K.build directives) in
          List.iter
            (fun (flow, lm) ->
              let lm, _ = Pass.run_pipeline [ Pass.inline; Pass.mem2reg ] lm in
              List.iter
                (fun (f : Lmodule.func) ->
                  let phis =
                    Lmodule.fold_insts
                      (fun acc (i : Linstr.t) ->
                        match i.op with
                        | Linstr.Phi _ -> Support.Interner.name i.result :: acc
                        | _ -> acc)
                      [] f
                  in
                  match List.filter (fun r -> List.mem r phis) (dead_rows f) with
                  | [] -> ()
                  | dead ->
                      Alcotest.failf "%s/%s/%s @%s: %d dead phis (%%%s)" k.K.kname
                        flow label f.Lmodule.fname (List.length dead)
                        (String.concat ", %" dead))
                lm.Lmodule.funcs)
            [
              ( "direct-ir",
                Lowering.Lower.directive_free ~style:Lowering.Lower.modern m );
              ("hls-cpp", Hlscpp.Ccodegen.compile (Hlscpp.Emit.emit_module m));
            ])
        Mhls_driver.Driver.default_grid)
    (K.all ())

(* ------------------------------------------------------------------ *)
(* HLS C++ flow IR digests                                            *)
(* ------------------------------------------------------------------ *)

(* MD5 of the IR the HLS C++ flow hands its estimator ([Flow.run]'s
   [llvm], printed) for the 14 kernels and the default grid.  The
   [cpp] digests above cover the emitted C++ only; these pin what the
   C++ front end and the cleanup make of it, so a cleanup change that
   alters this IR shows even when no report moves.  Update only with an
   intentional change to that IR. *)
let cpp_ir_digests =
  [
    ("gemm/baseline", "9b998830644c29e55c0d32ddf87d22ee");
    ("gemm/pipeline-inner", "b1de83f32dcf14cc3fbc4b0ee56a98ab");
    ("gemm/inner-unroll4", "6e99afa395386c4b4b1c673983758877");
    ("gemm/middle-full-unroll", "d4f2b8c44e682ca060ffcf6d0b846b99");
    ("mm2/baseline", "1d39c272d3ffc460c79db3767a5d1ca8");
    ("mm2/pipeline-inner", "fe6feceed1a59fb82c2d56365a02b8df");
    ("mm2/inner-unroll4", "7abf08e761913b41483b3b16f45d0e06");
    ("mm2/middle-full-unroll", "b41008ae49679a4d71d1d2227048dda9");
    ("mm3/baseline", "2daeb429db19cd2b86dacc4d9387e82a");
    ("mm3/pipeline-inner", "05c64da2672f3ec2fd0334f14158dcdf");
    ("mm3/inner-unroll4", "881679f3737b24e466454121b59c0cde");
    ("mm3/middle-full-unroll", "f654d5ad7cad68f182159c8d37e8f70c");
    ("atax/baseline", "74a0fe4834765da78b2c7963f96788b2");
    ("atax/pipeline-inner", "7267512060f16d28f5a9e0ab9c958382");
    ("atax/inner-unroll4", "b79bf7f8831d102555685967c7108799");
    ("atax/middle-full-unroll", "a222d21b7d698d5a84700d96ea154998");
    ("bicg/baseline", "409f1081e1ffa1ce408330642ac73abf");
    ("bicg/pipeline-inner", "591bb289975a90cf87d531e1f9197343");
    ("bicg/inner-unroll4", "eb6d7626fd9cc2df8e6a5e2a674d89fa");
    ("bicg/middle-full-unroll", "39b63cc3a8d864b9063aeb7ec41e1483");
    ("mvt/baseline", "2cd275cf64477a0f8e5472c293c946e8");
    ("mvt/pipeline-inner", "de855766bc6c4e7e0f44139472357682");
    ("mvt/inner-unroll4", "3333b9bf0edf2fb22c0c33d9d97cc076");
    ("mvt/middle-full-unroll", "4bd82e5afcc0c0349e30237afa7470c5");
    ("gesummv/baseline", "f2f13ac5eab65fbd257153e09bad0e65");
    ("gesummv/pipeline-inner", "5005e6a1ab055c6f7e910548dc96e211");
    ("gesummv/inner-unroll4", "bb4922b0ad81e1d6c1089f874fa7f949");
    ("gesummv/middle-full-unroll", "19d608b8c666e7f7e77b4de77e4537fd");
    ("fir/baseline", "c8856fc99323df8d18255387b314a887");
    ("fir/pipeline-inner", "a3ae0604953ebf1599b45c3d155b18ff");
    ("fir/inner-unroll4", "645cd93a0a6783600f4921ab56f7de22");
    ("fir/middle-full-unroll", "cc0dbce4bcaa1376625d168f2fb9c688");
    ("conv2d/baseline", "cef338cd9e5530c2957e451577363daa");
    ("conv2d/pipeline-inner", "c4c9d096c9969aebec6c7cb329377de4");
    ("conv2d/inner-unroll4", "c4d3b45ee9b0c9d66c013a1158f8da86");
    ("conv2d/middle-full-unroll", "1761314a55be551d8fdacc323b17af49");
    ("jacobi2d/baseline", "1da4b927d2fa0feda273bf719d2f0974");
    ("jacobi2d/pipeline-inner", "69d335caefb178c75125ad4e45c811c6");
    ("jacobi2d/inner-unroll4", "d1450d1cd49bd2f343c1cfb13b81dae7");
    ("jacobi2d/middle-full-unroll", "f0dd76bbde9fbc03184c76d18c0b9561");
    ("syrk/baseline", "166cfd06844add415b26786bf6c2dadf");
    ("syrk/pipeline-inner", "6f071f2a999ae390f56d3c50b83a3e35");
    ("syrk/inner-unroll4", "d888436cb9949ace6d90a999bb3b8e96");
    ("syrk/middle-full-unroll", "e0613bfed0b7cb7f379db1bf674290ef");
    ("doitgen/baseline", "78e14a092d86628f6c7a953a9be4168d");
    ("doitgen/pipeline-inner", "232ed906d918a44c038a8e79569c0e95");
    ("doitgen/inner-unroll4", "11115028cb9022710a9930f452aa748a");
    ("doitgen/middle-full-unroll", "baf5785b9b3d29a0e5bb6ae1c4e75007");
    ("seidel2d/baseline", "700ef336303d5a1cd3fb410ec82dc315");
    ("seidel2d/pipeline-inner", "197f2709359e6e261280b143d7c92cec");
    ("seidel2d/inner-unroll4", "904f3d634fc3df182d664f696f15b46c");
    ("seidel2d/middle-full-unroll", "197f2709359e6e261280b143d7c92cec");
    ("mmcall/baseline", "5c7f3e640d1ebd08e57cf1c824ac8be0");
    ("mmcall/pipeline-inner", "3977929e0bf1d4f3a57fe49358177ae3");
    ("mmcall/inner-unroll4", "3febaefb9d32ad856d48c251381cae2e");
    ("mmcall/middle-full-unroll", "79ef41e2a9366f33039742a0ceaa86d2");
  ]

let cpp_ir_digest (k : K.kernel) (label, directives) =
  match Flow.run ~directives k Flow.Hls_cpp with
  | Ok r ->
      ( k.K.kname ^ "/" ^ label,
        Digest.to_hex
          (Digest.string (Llvmir.Lprinter.module_to_string r.Flow.llvm)) )
  | Error _ -> Alcotest.failf "%s/hls-cpp/%s: flow failed" k.K.kname label

(* As for the 42 texts, the digests are made in both orders. *)
let test_cpp_ir_digests () =
  let grid = Mhls_driver.Driver.default_grid in
  let forward =
    List.concat_map (fun k -> List.map (cpp_ir_digest k) grid) (K.all ())
  in
  let backward =
    List.concat_map
      (fun k -> List.map (cpp_ir_digest k) (List.rev grid))
      (List.rev (K.all ()))
  in
  Alcotest.(check int) "every kernel and grid point pinned"
    (List.length cpp_ir_digests) (List.length forward);
  List.iter
    (fun (key, got) ->
      Alcotest.(check (option string)) (key ^ " digest")
        (List.assoc_opt key cpp_ir_digests) (Some got))
    (forward @ backward)

let suite =
  [
    Alcotest.test_case "cosim (all kernels x directives)" `Slow
      test_cosim_all_kernels_all_directives;
    Alcotest.test_case "both flows synthesize" `Quick test_both_flows_synthesize_everything;
    Alcotest.test_case "comparable performance" `Quick test_comparable_performance;
    Alcotest.test_case "adaptor report attached" `Quick test_adaptor_report_attached;
    Alcotest.test_case "cpp source attached" `Quick test_cpp_source_attached;
    Alcotest.test_case "partition sweep monotonic" `Quick test_partition_sweep_monotonic;
    Alcotest.test_case "flat ablation ignores partitioning" `Quick
      test_flat_ablation_ignores_partitioning;
    Alcotest.test_case "adaptor beats flat ablation" `Quick test_adaptor_beats_flat_ablation;
    Alcotest.test_case "no-descriptor ablation rejected" `Quick
      test_no_descriptor_ablation_rejected;
    Alcotest.test_case "compile times recorded" `Quick test_compile_times_recorded;
    Alcotest.test_case "compare grid bytes (gemm)" `Quick test_compare_grid_bytes;
    Alcotest.test_case "adaptor events carry allocation" `Quick
      test_adaptor_events_allocate;
    Alcotest.test_case "one analysis manager per job" `Quick
      test_one_manager_per_job;
    Alcotest.test_case "IR text digests (42 texts)" `Quick test_ir_digests;
    Alcotest.test_case "no dead code after cleanup" `Quick
      test_no_dead_code_after_cleanup;
    Alcotest.test_case "no dead phi out of mem2reg" `Quick
      test_mem2reg_no_dead_phi;
    Alcotest.test_case "HLS C++ flow IR digests (56 texts)" `Quick
      test_cpp_ir_digests;
  ]
