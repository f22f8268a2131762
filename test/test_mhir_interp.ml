(** Semantics tests for the mhir interpreter, plus differential tests
    for the mhir-level canonicalizer. *)

open Mhir

(** Build a single-function module evaluating integer expressions. *)
let int_func name body =
  let b = Builder.create () in
  let f =
    Builder.func b name ~args:[] ~ret_tys:[ Types.I32 ] (fun b _ ->
        let r = body b in
        Builder.ret b [ r ])
  in
  { Ir.funcs = [ f ] }

let run_int m name =
  match Interp.run_func m name [] with
  | [ Interp.Int v ] -> v
  | _ -> Alcotest.fail "expected a single integer result"

let test_arith_semantics () =
  let cases =
    [
      ("add", (fun b -> Builder.addi b (Builder.constant_i ~ty:Types.I32 b 40) (Builder.constant_i ~ty:Types.I32 b 2)), 42);
      ("sub", (fun b -> Builder.subi b (Builder.constant_i ~ty:Types.I32 b 7) (Builder.constant_i ~ty:Types.I32 b 10)), -3);
      ("mul", (fun b -> Builder.muli b (Builder.constant_i ~ty:Types.I32 b 6) (Builder.constant_i ~ty:Types.I32 b 7)), 42);
      ("div", (fun b -> Builder.divsi b (Builder.constant_i ~ty:Types.I32 b 7) (Builder.constant_i ~ty:Types.I32 b 2)), 3);
      ("rem", (fun b -> Builder.remsi b (Builder.constant_i ~ty:Types.I32 b 7) (Builder.constant_i ~ty:Types.I32 b 4)), 3);
      ("max", (fun b -> Builder.maxsi b (Builder.constant_i ~ty:Types.I32 b 3) (Builder.constant_i ~ty:Types.I32 b 9)), 9);
      ("min", (fun b -> Builder.minsi b (Builder.constant_i ~ty:Types.I32 b 3) (Builder.constant_i ~ty:Types.I32 b 9)), 3);
      ("shl", (fun b -> Builder.shli b (Builder.constant_i ~ty:Types.I32 b 3) (Builder.constant_i ~ty:Types.I32 b 2)), 12);
    ]
  in
  List.iter
    (fun (name, body, expected) ->
      let m = int_func name body in
      Alcotest.(check int) name expected (run_int m name))
    cases

let test_i32_wrapping () =
  let m =
    int_func "wrap" (fun b ->
        let big = Builder.constant_i ~ty:Types.I32 b 0x7FFFFFFF in
        let one = Builder.constant_i ~ty:Types.I32 b 1 in
        Builder.addi b big one)
  in
  Alcotest.(check int) "i32 overflow wraps to min_int32" (-2147483648)
    (run_int m "wrap")

let test_select_and_cmp () =
  let m =
    int_func "sel" (fun b ->
        let a = Builder.constant_i ~ty:Types.I32 b 10 in
        let c = Builder.constant_i ~ty:Types.I32 b 20 in
        let cond = Builder.cmpi b Builder.Slt a c in
        Builder.select b cond a c)
  in
  Alcotest.(check int) "select slt" 10 (run_int m "sel")

let test_scf_if () =
  let build cond_val =
    let b = Builder.create () in
    let f =
      Builder.func b "f" ~args:[] ~ret_tys:[ Types.I32 ] (fun b _ ->
          let x = Builder.constant_i ~ty:Types.I32 b cond_val in
          let z = Builder.constant_i ~ty:Types.I32 b 0 in
          let c = Builder.cmpi b Builder.Sgt x z in
          let r =
            Builder.scf_if b c ~result_tys:[ Types.I32 ]
              ~then_:(fun b -> [ Builder.constant_i ~ty:Types.I32 b 111 ])
              ~else_:(fun b -> [ Builder.constant_i ~ty:Types.I32 b 222 ])
          in
          Builder.ret b [ List.hd r ])
    in
    { Ir.funcs = [ f ] }
  in
  Alcotest.(check int) "then branch" 111 (run_int (build 5) "f");
  Alcotest.(check int) "else branch" 222 (run_int (build (-5)) "f")

let test_loop_iter_args () =
  (* sum of 0..9 via iter_args *)
  let b = Builder.create () in
  let f =
    Builder.func b "tri" ~args:[] ~ret_tys:[ Types.Index ] (fun b _ ->
        let zero = Builder.constant_i b 0 in
        let r =
          Builder.affine_for b ~lb:0 ~ub:10 ~iters:[ zero ] (fun b i iters ->
              [ Builder.addi b (List.hd iters) i ])
        in
        Builder.ret b [ List.hd r ])
  in
  let m = { Ir.funcs = [ f ] } in
  (match Interp.run_func m "tri" [] with
  | [ Interp.Int 45 ] -> ()
  | [ Interp.Int v ] -> Alcotest.failf "expected 45, got %d" v
  | _ -> Alcotest.fail "bad result shape")

let test_out_of_bounds_traps () =
  let b = Builder.create () in
  let f =
    Builder.func b "oob" ~args:[ ("x", Types.memref [ 4 ]) ] ~ret_tys:[]
      (fun b args ->
        let x = List.hd args in
        let i = Builder.constant_i b 9 in
        ignore (Builder.load b x [ i ]);
        Builder.ret b [])
  in
  let m = { Ir.funcs = [ f ] } in
  let buf = Interp.fbuf [ 4 ] [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check bool) "OOB load raises" true
    (try
       ignore (Interp.run_func m "oob" [ buf ]);
       false
     with Support.Err.Compile_error _ -> true)

let test_call_between_functions () =
  let b = Builder.create () in
  let callee =
    Builder.func b "double" ~args:[ ("v", Types.I32) ] ~ret_tys:[ Types.I32 ]
      (fun b args ->
        let v = List.hd args in
        Builder.ret b [ Builder.addi b v v ])
  in
  let b2 = Builder.create () in
  let caller =
    Builder.func b2 "main" ~args:[] ~ret_tys:[ Types.I32 ] (fun b _ ->
        let x = Builder.constant_i ~ty:Types.I32 b 21 in
        let r = Builder.call b "double" ~ret_tys:[ Types.I32 ] [ x ] in
        Builder.ret b [ List.hd r ])
  in
  let m = { Ir.funcs = [ callee; caller ] } in
  Verifier.verify_module m;
  Alcotest.(check int) "call result" 42 (run_int m "main")

(* ------------------------------------------------------------------ *)
(* Differential tests for the mhir passes                             *)
(* ------------------------------------------------------------------ *)

(** Run a kernel through the mhir interpreter, optionally transformed. *)
let kernel_outputs ?(transform = fun m -> m) (k : Workloads.Kernels.kernel) =
  let m = transform (k.Workloads.Kernels.build Workloads.Kernels.no_directives) in
  Verifier.verify_module m;
  let bufs =
    List.mapi
      (fun i (_, shape) ->
        match Interp.random_fbuf ~seed:(i + 3) shape with
        | Interp.Buf src ->
            let b = Interp.alloc_buffer (Array.of_list shape) Types.F32 in
            Array.blit src.Interp.fdata 0 b.Interp.fdata 0
              (Array.length src.Interp.fdata);
            Interp.Buf b
        | _ -> assert false)
      k.Workloads.Kernels.args
  in
  ignore (Interp.run_func m k.Workloads.Kernels.kname bufs);
  List.map
    (function
      | Interp.Buf b -> Array.copy b.Interp.fdata
      | _ -> assert false)
    bufs

let check_same_outputs name a b =
  List.iteri
    (fun i (x, y) ->
      Array.iteri
        (fun j xv ->
          if Float.abs (xv -. y.(j)) > 1e-9 then
            Alcotest.failf "%s: arg %d index %d differs: %g vs %g" name i j xv
              y.(j))
        x)
    (List.combine a b)

let test_canonicalize_preserves_semantics () =
  List.iter
    (fun k ->
      let plain = kernel_outputs k in
      let canon = kernel_outputs ~transform:Canonicalize.run k in
      check_same_outputs k.Workloads.Kernels.kname plain canon)
    (Workloads.Kernels.all ())

let test_canonicalize_folds_constants () =
  let b = Builder.create () in
  let f =
    Builder.func b "fold" ~args:[] ~ret_tys:[ Types.Index ] (fun b _ ->
        let two = Builder.constant_i b 2 in
        let three = Builder.constant_i b 3 in
        let six = Builder.muli b two three in
        let seven = Builder.addi b six (Builder.constant_i b 1) in
        Builder.ret b [ seven ])
  in
  let m = Canonicalize.run { Ir.funcs = [ f ] } in
  let f' = List.hd m.Ir.funcs in
  let arith_ops = ref 0 in
  Ir.walk_func
    (fun o ->
      if o.Ir.name = "arith.addi" || o.Ir.name = "arith.muli" then
        incr arith_ops)
    f';
  Alcotest.(check int) "all arithmetic folded away" 0 !arith_ops;
  Alcotest.(check int) "still evaluates to 7" 7
    (match Interp.run_func m "fold" [] with
    | [ Interp.Int v ] -> v
    | _ -> -1)

let test_canonicalize_removes_dead_code () =
  let b = Builder.create () in
  let f =
    Builder.func b "dead" ~args:[] ~ret_tys:[] (fun b _ ->
        let x = Builder.constant_f b 1.0 in
        let y = Builder.constant_f b 2.0 in
        ignore (Builder.addf b x y);  (* dead *)
        Builder.ret b [])
  in
  let m = Canonicalize.run { Ir.funcs = [ f ] } in
  Alcotest.(check int) "everything dead is gone" 1
    (Ir.op_count (List.hd m.Ir.funcs))

(* [-0.0 + 0.0] is [+0.0], so a float identity the canonicalizer folds
   must give the same bits as the unfolded op at [x = -0.0] *)
let test_canonicalize_signed_zero () =
  List.iter
    (fun (name, body) ->
      let b = Builder.create () in
      let f =
        Builder.func b "z" ~args:[ ("x", Types.F32) ] ~ret_tys:[ Types.F32 ]
          (fun b args -> Builder.ret b [ body b (List.hd args) ])
      in
      let m = { Ir.funcs = [ f ] } in
      let run m =
        match Interp.run_func m "z" [ Interp.Float (-0.0) ] with
        | [ Interp.Float v ] -> Int64.bits_of_float v
        | _ -> Alcotest.fail "expected a single float result"
      in
      Alcotest.(check int64) name (run m) (run (Canonicalize.run m)))
    [
      ("addf x, 0.0", fun b x -> Builder.addf b x (Builder.constant_f b 0.0));
      ("addf 0.0, x", fun b x -> Builder.addf b (Builder.constant_f b 0.0) x);
      ("subf x, -0.0", fun b x -> Builder.subf b x (Builder.constant_f b (-0.0)));
    ]

let suite =
  [
    Alcotest.test_case "arith semantics" `Quick test_arith_semantics;
    Alcotest.test_case "i32 wrapping" `Quick test_i32_wrapping;
    Alcotest.test_case "select and cmp" `Quick test_select_and_cmp;
    Alcotest.test_case "scf.if" `Quick test_scf_if;
    Alcotest.test_case "loop iter_args" `Quick test_loop_iter_args;
    Alcotest.test_case "out-of-bounds traps" `Quick test_out_of_bounds_traps;
    Alcotest.test_case "function calls" `Quick test_call_between_functions;
    Alcotest.test_case "canonicalize preserves semantics" `Quick
      test_canonicalize_preserves_semantics;
    Alcotest.test_case "canonicalize folds constants" `Quick
      test_canonicalize_folds_constants;
    Alcotest.test_case "canonicalize removes dead code" `Quick
      test_canonicalize_removes_dead_code;
    Alcotest.test_case "canonicalize keeps the sign of zero" `Quick
      test_canonicalize_signed_zero;
  ]
