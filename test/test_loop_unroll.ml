(** Tests for the mhir-level loop unroller (the cross-layer
    optimization extension). *)

open Mhir
module K = Workloads.Kernels

let count_loops (f : Ir.func) =
  let n = ref 0 in
  Ir.walk_func (fun o -> if o.Ir.name = "affine.for" then incr n) f;
  !n

let inner_step (f : Ir.func) =
  (* step of the deepest loop *)
  let deepest = ref None in
  Ir.walk_func
    (fun o ->
      if o.Ir.name = "affine.for" then
        deepest := Some (Attr.as_int (Attr.find_exn o.Ir.attrs "step")))
    f;
  !deepest

let test_unroll_preserves_structure () =
  let m = (K.gemm ()).K.build K.no_directives in
  let m' = Loop_unroll.run ~factor:4 m in
  Verifier.verify_module m';
  let f = List.hd m'.Ir.funcs in
  Alcotest.(check int) "still three loops" 3 (count_loops f);
  Alcotest.(check (option int)) "inner step scaled" (Some 4) (inner_step f)

let test_unroll_preserves_semantics () =
  List.iter
    (fun k ->
      List.iter
        (fun factor ->
          let plain =
            Flow.run_mhir k ~directives:K.no_directives
          in
          (* unrolled variant, interpreted at the mhir level *)
          let m = Loop_unroll.run ~factor (k.K.build K.no_directives) in
          Verifier.verify_module m;
          let bufs =
            List.mapi
              (fun i (_, shape) ->
                match Interp.random_fbuf ~seed:(i + 7) shape with
                | Interp.Buf src ->
                    let b =
                      Interp.alloc_buffer (Array.of_list shape) Types.F32
                    in
                    Array.blit src.Interp.fdata 0 b.Interp.fdata 0
                      (Array.length src.Interp.fdata);
                    Interp.Buf b
                | _ -> assert false)
              k.K.args
          in
          ignore (Interp.run_func m k.K.kname bufs);
          let unrolled =
            List.map
              (function
                | Interp.Buf b -> Array.copy b.Interp.fdata
                | _ -> assert false)
              bufs
          in
          List.iteri
            (fun i (a, b) ->
              Array.iteri
                (fun j av ->
                  if Float.abs (av -. b.(j)) > 1e-9 then
                    Alcotest.failf "%s x%d: diverges at %d[%d]" k.K.kname
                      factor i j)
                a)
            (List.combine plain unrolled))
        [ 2; 4 ])
    [ K.gemm (); K.fir (); K.jacobi2d () ]

let test_unroll_through_full_flow () =
  (* mhir-level unroll composes with the adaptor flow *)
  let k = K.gemm () in
  let m = Loop_unroll.run ~factor:2 (k.K.build K.pipelined) in
  let lm, _, _ = Flow_util.frontend_exn m in
  let r = Hls_backend.Backend.synthesize ~top:"gemm" lm in
  Alcotest.(check bool) "synthesizes" true (r.Hls_backend.Estimate.latency > 0);
  (* and computes the right thing *)
  let reference = Flow.run_reference k in
  let got = Flow.run_llvm k lm in
  let err, issues = Flow.compare_outputs k ~what:"unrolled" reference got in
  if issues <> [] then Alcotest.fail (List.hd issues);
  Alcotest.(check bool) "error small" true (err < 1e-5)

let test_indivisible_trip_left_alone () =
  (* trip 16 with factor 3 does not divide: loop must be unchanged *)
  let m = (K.gemm ()).K.build K.no_directives in
  let m' = Loop_unroll.run ~factor:3 m in
  let f = List.hd m'.Ir.funcs in
  Alcotest.(check (option int)) "step unchanged" (Some 1) (inner_step f)

let test_only_innermost_unrolled () =
  let m = Loop_unroll.run ~factor:2 ((K.gemm ()).K.build K.no_directives) in
  let f = List.hd m.Ir.funcs in
  let steps = ref [] in
  Ir.walk_func
    (fun o ->
      if o.Ir.name = "affine.for" then
        steps := Attr.as_int (Attr.find_exn o.Ir.attrs "step") :: !steps)
    f;
  Alcotest.(check (list int)) "only one loop rescaled"
    [ 1; 1; 2 ]
    (List.sort compare !steps)

let test_unroll_grows_body () =
  let m0 = (K.fir ()).K.build K.no_directives in
  let m2 = Loop_unroll.run ~factor:2 m0 in
  let size m = Ir.op_count (List.hd m.Ir.funcs) in
  Alcotest.(check bool) "body duplicated" true (size m2 > size m0)

let suite =
  [
    Alcotest.test_case "preserves structure" `Quick test_unroll_preserves_structure;
    Alcotest.test_case "preserves semantics" `Quick test_unroll_preserves_semantics;
    Alcotest.test_case "composes with the flow" `Quick test_unroll_through_full_flow;
    Alcotest.test_case "indivisible trip left alone" `Quick test_indivisible_trip_left_alone;
    Alcotest.test_case "only innermost unrolled" `Quick test_only_innermost_unrolled;
    Alcotest.test_case "grows the body" `Quick test_unroll_grows_body;
  ]
