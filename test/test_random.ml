(** Randomized differential testing: generate random kernels, push them
    through {e every} stage of both flows, and require bit-identical
    outputs from
    - the mhir interpreter,
    - the modern-lowered LLVM IR,
    - the adaptor's HLS-ready IR,
    - the HLS C++ round-trip IR.

    The generated programs use wrap-around affine subscripts
    ([A[(i+di) mod 8][(j+dj) mod 8]]), float min/max/select and optional
    reduction loops, covering the constructs the hand-written kernels
    exercise plus the ones they don't (mod arithmetic, selects). *)

open Mhir

let n = 8

(** Expression description (pure data, shrinkable by QCheck). *)
type rexpr =
  | Rconst of float
  | Rload_a of int * int  (** A[(i+di) mod n][(j+dj) mod n] *)
  | Rload_x of int  (** x[(i+d) mod n] *)
  | Radd of rexpr * rexpr
  | Rsub of rexpr * rexpr
  | Rmul of rexpr * rexpr
  | Rmax of rexpr * rexpr
  | Rmin of rexpr * rexpr
  | Rselect of rexpr * rexpr * rexpr  (** if e1 < e2 then e2 else e3... *)

type rkernel = {
  body : rexpr;
  reduce : rexpr option;  (** when set, add a k-loop summing this *)
  pipeline : bool;
}

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let gen_expr : rexpr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (1, map (fun f -> Rconst (float_of_int f /. 4.0)) (int_range (-8) 8));
        (3, map2 (fun a b -> Rload_a (a, b)) (int_range 0 (n - 1)) (int_range 0 (n - 1)));
        (2, map (fun d -> Rload_x d) (int_range 0 (n - 1)));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map2 (fun a b -> Radd (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Rsub (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Rmul (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Rmax (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Rmin (a, b)) (self (depth - 1)) (self (depth - 1)));
            ( 1,
              map3
                (fun a b c -> Rselect (a, b, c))
                (self (depth - 1)) (self (depth - 1)) (self (depth - 1)) );
          ])
    3

let gen_kernel : rkernel QCheck.Gen.t =
  let open QCheck.Gen in
  map3
    (fun body reduce pipeline -> { body; reduce; pipeline })
    gen_expr
    (opt gen_expr)
    bool

let arb_kernel = QCheck.make gen_kernel

(* ------------------------------------------------------------------ *)
(* Building the mhir module                                           *)
(* ------------------------------------------------------------------ *)

let wrap_map di dj =
  (* (d0, d1) -> ((d0 + di) mod n, (d1 + dj) mod n) *)
  Affine_map.make ~num_dims:2 ~num_syms:0
    [
      Affine_expr.modulo
        (Affine_expr.add (Affine_expr.dim 0) (Affine_expr.const di))
        (Affine_expr.const n);
      Affine_expr.modulo
        (Affine_expr.add (Affine_expr.dim 1) (Affine_expr.const dj))
        (Affine_expr.const n);
    ]

let wrap_map1 d =
  Affine_map.make ~num_dims:1 ~num_syms:0
    [
      Affine_expr.modulo
        (Affine_expr.add (Affine_expr.dim 0) (Affine_expr.const d))
        (Affine_expr.const n);
    ]

let rec build_expr b ~a ~x ~i ~j (e : rexpr) : Ir.value =
  let sub = build_expr b ~a ~x ~i ~j in
  match e with
  | Rconst f -> Builder.constant_f b f
  | Rload_a (di, dj) -> Builder.affine_load b a ~map:(wrap_map di dj) [ i; j ]
  | Rload_x d -> Builder.affine_load b x ~map:(wrap_map1 d) [ i ]
  | Radd (p, q) -> Builder.addf b (sub p) (sub q)
  | Rsub (p, q) -> Builder.subf b (sub p) (sub q)
  | Rmul (p, q) -> Builder.mulf b (sub p) (sub q)
  | Rmax (p, q) -> Builder.maxf b (sub p) (sub q)
  | Rmin (p, q) -> Builder.minf b (sub p) (sub q)
  | Rselect (p, q, r) ->
      let vp = sub p and vq = sub q and vr = sub r in
      let c = Builder.cmpf b Builder.Olt vp vq in
      Builder.select b c vq vr

let build_module (rk : rkernel) : Ir.modul =
  let b = Builder.create () in
  let mty = Types.memref [ n; n ] in
  let vty = Types.memref [ n ] in
  let attrs = if rk.pipeline then [ ("hls.pipeline", Attr.Int 1) ] else [] in
  let f =
    Builder.func b "rnd"
      ~args:[ ("A", mty); ("x", vty); ("y", mty) ]
      ~ret_tys:[]
      (fun b args ->
        match args with
        | [ a; x; y ] ->
            ignore
              (Builder.affine_for b ~lb:0 ~ub:n (fun b i _ ->
                   ignore
                     (Builder.affine_for b ~lb:0 ~ub:n ~attrs (fun b j _ ->
                          let base = build_expr b ~a ~x ~i ~j rk.body in
                          let result =
                            match rk.reduce with
                            | None -> base
                            | Some re ->
                                let acc =
                                  Builder.affine_for b ~lb:0 ~ub:4
                                    ~iters:[ base ] (fun b k iters ->
                                      (* reuse k as a shifted row index *)
                                      let term =
                                        build_expr b ~a ~x ~i:k ~j re
                                      in
                                      [ Builder.addf b (List.hd iters) term ])
                                in
                                List.hd acc
                          in
                          Builder.store b result y [ i; j ];
                          []));
                   []));
            Builder.ret b []
        | _ -> assert false)
  in
  { Ir.funcs = [ f ] }

(* ------------------------------------------------------------------ *)
(* The differential property                                          *)
(* ------------------------------------------------------------------ *)

let inputs () =
  let mk seed size =
    match Interp.random_fbuf ~seed [ size ] with
    | Interp.Buf b -> b.Interp.fdata
    | _ -> assert false
  in
  (mk 11 (n * n), mk 13 n, Array.make (n * n) 0.0)

let run_mhir m =
  let adata, xdata, _ = inputs () in
  let mk shape data =
    let b = Interp.alloc_buffer (Array.of_list shape) Types.F32 in
    Array.blit data 0 b.Interp.fdata 0 (Array.length data);
    Interp.Buf b
  in
  let a = mk [ n; n ] adata in
  let x = mk [ n ] xdata in
  let y = mk [ n; n ] (Array.make (n * n) 0.0) in
  ignore (Interp.run_func m "rnd" [ a; x; y ]);
  match y with Interp.Buf b -> Array.copy b.Interp.fdata | _ -> assert false

let run_llvm lm =
  let adata, xdata, _ = inputs () in
  let st = Llvmir.Linterp.create lm in
  let aa = Llvmir.Linterp.alloc_floats st (n * n) in
  let ax = Llvmir.Linterp.alloc_floats st n in
  let ay = Llvmir.Linterp.alloc_floats st (n * n) in
  Llvmir.Linterp.write_floats st aa adata;
  Llvmir.Linterp.write_floats st ax xdata;
  ignore
    (Llvmir.Linterp.run st "rnd"
       Llvmir.Linterp.[ RPtr aa; RPtr ax; RPtr ay ]);
  Llvmir.Linterp.read_floats st ay (n * n)

let agree a b = Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs x)) a b

let prop_all_stages_agree =
  QCheck.Test.make ~name:"random kernels: all flow stages agree" ~count:25
    arb_kernel (fun rk ->
      let m = build_module rk in
      Verifier.verify_module m;
      let expected = run_mhir m in
      (* modern lowering *)
      let lowered = Lowering.Lower.lower_module (Canonicalize.run m) in
      Llvmir.Lverifier.verify_module lowered;
      let opt = fst (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline lowered) in
      (* adaptor *)
      let adapted, _ = Adaptor.run_exn opt in
      (* C++ round-trip *)
      let cpp = Hlscpp.Emit.emit_module (Canonicalize.run m) in
      let cpp_ir = Hlscpp.Ccodegen.compile cpp in
      let cpp_opt = fst (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline cpp_ir) in
      agree expected (run_llvm lowered)
      && agree expected (run_llvm opt)
      && agree expected (run_llvm adapted)
      && agree expected (run_llvm cpp_opt))

let prop_roundtrip_random_modules =
  QCheck.Test.make ~name:"random kernels: generic text round-trips" ~count:25
    arb_kernel (fun rk ->
      let m = build_module rk in
      let t1 = Printer.module_to_string ~generic:true m in
      let m2 = Parser.parse_module t1 in
      Verifier.verify_module m2;
      Printer.module_to_string ~generic:true m2 = t1)

let prop_adapted_always_legal =
  QCheck.Test.make ~name:"random kernels: adaptor output always HLS-legal"
    ~count:25 arb_kernel (fun rk ->
      let m = build_module rk in
      let lowered = Lowering.Lower.lower_module (Canonicalize.run m) in
      let opt = fst (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline lowered) in
      let adapted, _ = Adaptor.run_exn opt in
      Hls_backend.Adaptor_markers.legality_errors adapted = [])

let prop_synthesis_total =
  QCheck.Test.make ~name:"random kernels: synthesis never fails" ~count:25
    arb_kernel (fun rk ->
      let m = build_module rk in
      let lowered = Lowering.Lower.lower_module (Canonicalize.run m) in
      let opt = fst (Llvmir.Pass.run_pipeline Llvmir.Pass.default_pipeline lowered) in
      let adapted, _ = Adaptor.run_exn opt in
      let r = Hls_backend.Backend.synthesize ~top:"rnd" adapted in
      r.Hls_backend.Estimate.latency > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_all_stages_agree;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_modules;
    QCheck_alcotest.to_alcotest prop_adapted_always_legal;
    QCheck_alcotest.to_alcotest prop_synthesis_total;
  ]
