(** PolyBench-style benchmark kernels, built directly in the multi-level
    IR (as an MLIR front-end such as Polygeist / the paper's flow would
    produce them), each paired with a plain-OCaml reference
    implementation for three-way co-simulation.

    All kernels use statically-shaped [f32] memrefs.  Directives
    (pipeline / unroll on the innermost loop, array partitioning on a
    named argument) are injected at build time. *)

open Mhir

(** Where the pipeline directive goes in a loop nest:
    - [Inner]: pipeline the innermost (reduction) loop — the naive
      choice, II is recurrence-bound for float accumulation;
    - [Middle]: pipeline the second-innermost loop and {e fully unroll}
      the innermost — the standard HLS recipe; II becomes memory-port
      bound, so array partitioning pays off. *)
type strategy = Inner | Middle

(** Synthesis directives applied when building a kernel. *)
type directives = {
  pipeline_ii : int option;  (** target II for the pipelined loop *)
  unroll : int option;  (** extra unroll factor for the innermost loop *)
  strategy : strategy;
  partitions : (string * string * int * int) list;
      (** (argument, kind, factor, dim) *)
}

let all_strategies = [ Inner; Middle ]

let strategy_name = function Inner -> "inner" | Middle -> "middle"

let strategy_of_name s =
  List.find_opt (fun st -> strategy_name st = s) all_strategies

let partition_to_string (a, kind, factor, dim) =
  Printf.sprintf "%s:%s:%d:%d" a kind factor dim

let partition_of_string s =
  match String.split_on_char ':' s with
  | [ a; kind; f; d ] -> (
      match (int_of_string_opt f, int_of_string_opt d) with
      | Some f, Some d -> Some (a, kind, f, d)
      | _ -> None)
  | _ -> None

let no_directives =
  { pipeline_ii = None; unroll = None; strategy = Inner; partitions = [] }

let pipelined = { no_directives with pipeline_ii = Some 1 }

(** The standard optimized recipe: pipeline the middle loop, unroll the
    reduction, partition the hot arrays by [factor]. *)
let optimized ?(factor = 4) ~(parts : (string * int) list) () =
  {
    pipeline_ii = Some 1;
    unroll = None;
    strategy = Middle;
    partitions = List.map (fun (a, d) -> (a, "cyclic", factor, d)) parts;
  }

type kernel = {
  kname : string;
  description : string;
  args : (string * int list) list;  (** name, shape (flattened size) *)
  outputs : string list;  (** names of output arguments *)
  build : directives -> Ir.modul;  (** top function named [kname] *)
  reference : float array list -> unit;  (** in-place on flat arrays *)
}

(** [Ok ()] when the estimator can honour every partition directive on
    [k]; else the first spec it would silently ignore or misread. *)
let check_partitions (k : kernel) parts : (unit, string) result =
  let check ((a, kind, factor, dim) as p) =
    let bad why =
      Error (Printf.sprintf "partition %s: %s" (partition_to_string p) why)
    in
    match List.assoc_opt a k.args with
    | None -> bad (Printf.sprintf "%s has no argument %s" k.kname a)
    | Some dims ->
        let rank = List.length dims in
        if not (List.mem kind [ "cyclic"; "block"; "complete" ]) then
          bad "kind must be cyclic, block or complete"
        else if factor < 1 then bad "factor must be at least 1"
        else if dim < 1 || dim > rank then
          bad (Printf.sprintf "dim must be 1 to %d, the rank of %s" rank a)
        else Ok ()
  in
  List.fold_left (fun acc p -> Result.bind acc (fun () -> check p)) (Ok ()) parts

(* ------------------------------------------------------------------ *)
(* Builder helpers                                                    *)
(* ------------------------------------------------------------------ *)

let mref shape = Types.memref shape

(** Innermost-loop attrs from directives. *)
let inner_attrs (d : directives) =
  match d.strategy with
  | Inner ->
      (match d.pipeline_ii with
      | Some ii -> [ ("hls.pipeline", Attr.Int ii) ]
      | None -> [])
      @ (match d.unroll with
        | Some f -> [ ("hls.unroll", Attr.Int f) ]
        | None -> [])
  | Middle -> [ ("hls.unroll", Attr.Bool true) ]  (* full unroll *)

(** Second-innermost-loop attrs from directives. *)
let middle_attrs (d : directives) =
  match d.strategy with
  | Inner -> []
  | Middle -> (
      match d.pipeline_ii with
      | Some ii -> [ ("hls.pipeline", Attr.Int ii) ]
      | None -> [ ("hls.pipeline", Attr.Int 1) ])

let fattrs_of (d : directives) =
  List.map
    (fun (arg, kind, factor, dim) ->
      ( "hls.partition." ^ arg,
        Attr.Str (Printf.sprintf "%s:%d:%d" kind factor dim) ))
    d.partitions

(** [matmul b d c_mem a_mem b_mem n m k] emits C[n×m] += A[n×k]·B[k×m]
    as a three-deep affine nest with a register accumulator. *)
let emit_matmul b d ~dst ~lhs ~rhs ~n ~m ~k =
  ignore
    (Builder.affine_for b ~lb:0 ~ub:n (fun b i _ ->
         ignore
           (Builder.affine_for b ~lb:0 ~ub:m ~attrs:(middle_attrs d)
              (fun b j _ ->
                let zero = Builder.constant_f b 0.0 in
                let acc =
                  Builder.affine_for b ~lb:0 ~ub:k ~iters:[ zero ]
                    ~attrs:(inner_attrs d) (fun b kk iters ->
                      let a = Builder.load b lhs [ i; kk ] in
                      let bv = Builder.load b rhs [ kk; j ] in
                      let m = Builder.mulf b a bv in
                      [ Builder.addf b (List.hd iters) m ])
                in
                Builder.store b (List.hd acc) dst [ i; j ];
                []));
         []))

let ref_matmul ~n ~m ~k cdat adat bdat =
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let acc = ref 0.0 in
      for kk = 0 to k - 1 do
        acc := !acc +. (adat.((i * k) + kk) *. bdat.((kk * m) + j))
      done;
      cdat.((i * m) + j) <- !acc
    done
  done

(* ------------------------------------------------------------------ *)
(* gemm                                                               *)
(* ------------------------------------------------------------------ *)

let gemm () : kernel =
  let n = 16 in
  {
    kname = "gemm";
    description = Printf.sprintf "C = A x B (dense %dx%d matmul)" n n;
    args = [ ("A", [ n; n ]); ("B", [ n; n ]); ("C", [ n; n ]) ];
    outputs = [ "C" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let f =
          Builder.func b "gemm"
            ~args:[ ("A", mty); ("B", mty); ("C", mty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; bb; c ] ->
                  emit_matmul b d ~dst:c ~lhs:a ~rhs:bb ~n ~m:n ~k:n;
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; bb; c ] -> ref_matmul ~n ~m:n ~k:n c a bb
      | _ -> invalid_arg "gemm reference");
  }

(* ------------------------------------------------------------------ *)
(* 2mm: tmp = A x B; D = tmp x C  (exercises a local buffer)          *)
(* ------------------------------------------------------------------ *)

let mm2 () : kernel =
  let n = 12 in
  {
    kname = "mm2";
    description = "D = (A x B) x C with an on-chip temporary";
    args = [ ("A", [ n; n ]); ("B", [ n; n ]); ("C", [ n; n ]); ("D", [ n; n ]) ];
    outputs = [ "D" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let f =
          Builder.func b "mm2"
            ~args:[ ("A", mty); ("B", mty); ("C", mty); ("D", mty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; bb; c; dd ] ->
                  let tmp = Builder.memref_alloc b mty in
                  emit_matmul b d ~dst:tmp ~lhs:a ~rhs:bb ~n ~m:n ~k:n;
                  emit_matmul b d ~dst:dd ~lhs:tmp ~rhs:c ~n ~m:n ~k:n;
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; bb; c; dd ] ->
          let tmp = Array.make (n * n) 0.0 in
          ref_matmul ~n ~m:n ~k:n tmp a bb;
          ref_matmul ~n ~m:n ~k:n dd tmp c
      | _ -> invalid_arg "mm2 reference");
  }

(* ------------------------------------------------------------------ *)
(* 3mm                                                                *)
(* ------------------------------------------------------------------ *)

let mm3 () : kernel =
  let n = 10 in
  {
    kname = "mm3";
    description = "G = (A x B) x (C x D)";
    args =
      [ ("A", [ n; n ]); ("B", [ n; n ]); ("C", [ n; n ]); ("D", [ n; n ]);
        ("G", [ n; n ]) ];
    outputs = [ "G" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let f =
          Builder.func b "mm3"
            ~args:
              [ ("A", mty); ("B", mty); ("C", mty); ("D", mty); ("G", mty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; bb; c; dd; g ] ->
                  let e = Builder.memref_alloc b mty in
                  let f_ = Builder.memref_alloc b mty in
                  emit_matmul b d ~dst:e ~lhs:a ~rhs:bb ~n ~m:n ~k:n;
                  emit_matmul b d ~dst:f_ ~lhs:c ~rhs:dd ~n ~m:n ~k:n;
                  emit_matmul b d ~dst:g ~lhs:e ~rhs:f_ ~n ~m:n ~k:n;
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; bb; c; dd; g ] ->
          let e = Array.make (n * n) 0.0 in
          let f_ = Array.make (n * n) 0.0 in
          ref_matmul ~n ~m:n ~k:n e a bb;
          ref_matmul ~n ~m:n ~k:n f_ c dd;
          ref_matmul ~n ~m:n ~k:n g e f_
      | _ -> invalid_arg "mm3 reference");
  }

(* ------------------------------------------------------------------ *)
(* atax: y = A^T (A x)                                                *)
(* ------------------------------------------------------------------ *)

let atax () : kernel =
  let n = 24 in
  {
    kname = "atax";
    description = "y = A^T (A x)";
    args = [ ("A", [ n; n ]); ("x", [ n ]); ("y", [ n ]); ("tmp", [ n ]) ];
    outputs = [ "y"; "tmp" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let vty = mref [ n ] in
        let f =
          Builder.func b "atax"
            ~args:[ ("A", mty); ("x", vty); ("y", vty); ("tmp", vty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; x; y; tmp ] ->
                  (* zero y *)
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n (fun b i _ ->
                         let z = Builder.constant_f b 0.0 in
                         Builder.store b z y [ i ];
                         []));
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n
                       ~attrs:(middle_attrs d) (fun b i _ ->
                         let zero = Builder.constant_f b 0.0 in
                         let acc =
                           Builder.affine_for b ~lb:0 ~ub:n ~iters:[ zero ]
                             ~attrs:(inner_attrs d) (fun b j iters ->
                               let av = Builder.load b a [ i; j ] in
                               let xv = Builder.load b x [ j ] in
                               let m = Builder.mulf b av xv in
                               [ Builder.addf b (List.hd iters) m ])
                         in
                         Builder.store b (List.hd acc) tmp [ i ];
                         []));
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n
                       ~attrs:(middle_attrs d) (fun b i _ ->
                         ignore
                           (Builder.affine_for b ~lb:0 ~ub:n
                              ~attrs:(inner_attrs d) (fun b j _ ->
                                let yv = Builder.load b y [ j ] in
                                let av = Builder.load b a [ i; j ] in
                                let tv = Builder.load b tmp [ i ] in
                                let m = Builder.mulf b av tv in
                                let s = Builder.addf b yv m in
                                Builder.store b s y [ j ];
                                []));
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; x; y; tmp ] ->
          Array.fill y 0 n 0.0;
          for i = 0 to n - 1 do
            let acc = ref 0.0 in
            for j = 0 to n - 1 do
              acc := !acc +. (a.((i * n) + j) *. x.(j))
            done;
            tmp.(i) <- !acc
          done;
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              y.(j) <- y.(j) +. (a.((i * n) + j) *. tmp.(i))
            done
          done
      | _ -> invalid_arg "atax reference");
  }

(* ------------------------------------------------------------------ *)
(* bicg: s = A^T r ; q = A p                                          *)
(* ------------------------------------------------------------------ *)

let bicg () : kernel =
  let n = 24 in
  {
    kname = "bicg";
    description = "s = A^T r; q = A p";
    args =
      [ ("A", [ n; n ]); ("r", [ n ]); ("p", [ n ]); ("s", [ n ]); ("q", [ n ]) ];
    outputs = [ "s"; "q" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let vty = mref [ n ] in
        let f =
          Builder.func b "bicg"
            ~args:
              [ ("A", mty); ("r", vty); ("p", vty); ("s", vty); ("q", vty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; r; p; s; q ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n (fun b i _ ->
                         let z = Builder.constant_f b 0.0 in
                         Builder.store b z s [ i ];
                         []));
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n
                       ~attrs:(middle_attrs d) (fun b i _ ->
                         let zero = Builder.constant_f b 0.0 in
                         let acc =
                           Builder.affine_for b ~lb:0 ~ub:n ~iters:[ zero ]
                             ~attrs:(inner_attrs d) (fun b j iters ->
                               (* s[j] += r[i] * A[i][j] *)
                               let sv = Builder.load b s [ j ] in
                               let rv = Builder.load b r [ i ] in
                               let av = Builder.load b a [ i; j ] in
                               let m = Builder.mulf b rv av in
                               let s2 = Builder.addf b sv m in
                               Builder.store b s2 s [ j ];
                               (* q[i] += A[i][j] * p[j] *)
                               let pv = Builder.load b p [ j ] in
                               let m2 = Builder.mulf b av pv in
                               [ Builder.addf b (List.hd iters) m2 ])
                         in
                         Builder.store b (List.hd acc) q [ i ];
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; r; p; s; q ] ->
          Array.fill s 0 n 0.0;
          for i = 0 to n - 1 do
            let acc = ref 0.0 in
            for j = 0 to n - 1 do
              s.(j) <- s.(j) +. (r.(i) *. a.((i * n) + j));
              acc := !acc +. (a.((i * n) + j) *. p.(j))
            done;
            q.(i) <- !acc
          done
      | _ -> invalid_arg "bicg reference");
  }

(* ------------------------------------------------------------------ *)
(* mvt: x1 += A y1 ; x2 += A^T y2                                     *)
(* ------------------------------------------------------------------ *)

let mvt () : kernel =
  let n = 24 in
  {
    kname = "mvt";
    description = "x1 += A y1; x2 += A^T y2";
    args =
      [ ("A", [ n; n ]); ("x1", [ n ]); ("x2", [ n ]); ("y1", [ n ]);
        ("y2", [ n ]) ];
    outputs = [ "x1"; "x2" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let vty = mref [ n ] in
        let f =
          Builder.func b "mvt"
            ~args:
              [ ("A", mty); ("x1", vty); ("x2", vty); ("y1", vty); ("y2", vty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; x1; x2; y1; y2 ] ->
                  let dot dst src row_major =
                    ignore
                      (Builder.affine_for b ~lb:0 ~ub:n
                         ~attrs:(middle_attrs d) (fun b i _ ->
                           let init = Builder.load b dst [ i ] in
                           let acc =
                             Builder.affine_for b ~lb:0 ~ub:n ~iters:[ init ]
                               ~attrs:(inner_attrs d) (fun b j iters ->
                                 let av =
                                   if row_major then Builder.load b a [ i; j ]
                                   else Builder.load b a [ j; i ]
                                 in
                                 let yv = Builder.load b src [ j ] in
                                 let m = Builder.mulf b av yv in
                                 [ Builder.addf b (List.hd iters) m ])
                           in
                           Builder.store b (List.hd acc) dst [ i ];
                           []))
                  in
                  dot x1 y1 true;
                  dot x2 y2 false;
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; x1; x2; y1; y2 ] ->
          for i = 0 to n - 1 do
            let acc = ref x1.(i) in
            for j = 0 to n - 1 do
              acc := !acc +. (a.((i * n) + j) *. y1.(j))
            done;
            x1.(i) <- !acc
          done;
          for i = 0 to n - 1 do
            let acc = ref x2.(i) in
            for j = 0 to n - 1 do
              acc := !acc +. (a.((j * n) + i) *. y2.(j))
            done;
            x2.(i) <- !acc
          done
      | _ -> invalid_arg "mvt reference");
  }

(* ------------------------------------------------------------------ *)
(* gesummv: y = alpha A x + beta B x                                  *)
(* ------------------------------------------------------------------ *)

let gesummv () : kernel =
  let n = 24 in
  let alpha = 1.5 and beta = 1.2 in
  {
    kname = "gesummv";
    description = "y = alpha A x + beta B x";
    args = [ ("A", [ n; n ]); ("B", [ n; n ]); ("x", [ n ]); ("y", [ n ]) ];
    outputs = [ "y" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let vty = mref [ n ] in
        let f =
          Builder.func b "gesummv"
            ~args:[ ("A", mty); ("B", mty); ("x", vty); ("y", vty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; bb; x; y ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n
                       ~attrs:(middle_attrs d) (fun b i _ ->
                         let zero = Builder.constant_f b 0.0 in
                         let accs =
                           Builder.affine_for b ~lb:0 ~ub:n
                             ~iters:[ zero; zero ] ~attrs:(inner_attrs d)
                             (fun b j iters ->
                               match iters with
                               | [ ta; tb ] ->
                                   let xv = Builder.load b x [ j ] in
                                   let av = Builder.load b a [ i; j ] in
                                   let bv = Builder.load b bb [ i; j ] in
                                   let ma = Builder.mulf b av xv in
                                   let mb = Builder.mulf b bv xv in
                                   [ Builder.addf b ta ma; Builder.addf b tb mb ]
                               | _ -> assert false)
                         in
                         (match accs with
                         | [ ta; tb ] ->
                             let ca = Builder.constant_f b alpha in
                             let cb = Builder.constant_f b beta in
                             let va = Builder.mulf b ca ta in
                             let vb = Builder.mulf b cb tb in
                             let s = Builder.addf b va vb in
                             Builder.store b s y [ i ]
                         | _ -> assert false);
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; bb; x; y ] ->
          for i = 0 to n - 1 do
            let ta = ref 0.0 and tb = ref 0.0 in
            for j = 0 to n - 1 do
              ta := !ta +. (a.((i * n) + j) *. x.(j));
              tb := !tb +. (bb.((i * n) + j) *. x.(j))
            done;
            y.(i) <- (alpha *. !ta) +. (beta *. !tb)
          done
      | _ -> invalid_arg "gesummv reference");
  }

(* ------------------------------------------------------------------ *)
(* fir: y[i] = sum_k h[k] x[i+k]                                      *)
(* ------------------------------------------------------------------ *)

let fir () : kernel =
  let n = 64 and taps = 8 in
  let outn = n - taps + 1 in
  {
    kname = "fir";
    description = Printf.sprintf "%d-tap FIR filter over %d samples" taps n;
    args = [ ("x", [ n ]); ("h", [ taps ]); ("y", [ outn ]) ];
    outputs = [ "y" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let f =
          Builder.func b "fir"
            ~args:
              [ ("x", mref [ n ]); ("h", mref [ taps ]); ("y", mref [ outn ]) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ x; h; y ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:outn
                       ~attrs:(middle_attrs d) (fun b i _ ->
                         let zero = Builder.constant_f b 0.0 in
                         let acc =
                           Builder.affine_for b ~lb:0 ~ub:taps ~iters:[ zero ]
                             ~attrs:(inner_attrs d) (fun b k iters ->
                               let hv = Builder.load b h [ k ] in
                               (* x[i + k] via an affine map *)
                               let xv =
                                 Builder.affine_load b x
                                   ~map:
                                     (Affine_map.make ~num_dims:2 ~num_syms:0
                                        [ Affine_expr.add (Affine_expr.dim 0)
                                            (Affine_expr.dim 1) ])
                                   [ i; k ]
                               in
                               let m = Builder.mulf b hv xv in
                               [ Builder.addf b (List.hd iters) m ])
                         in
                         Builder.store b (List.hd acc) y [ i ];
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ x; h; y ] ->
          for i = 0 to outn - 1 do
            let acc = ref 0.0 in
            for k = 0 to taps - 1 do
              acc := !acc +. (h.(k) *. x.(i + k))
            done;
            y.(i) <- !acc
          done
      | _ -> invalid_arg "fir reference");
  }

(* ------------------------------------------------------------------ *)
(* conv2d: valid convolution with a KxK kernel                        *)
(* ------------------------------------------------------------------ *)

let conv2d () : kernel =
  let h = 16 and w = 16 and k = 3 in
  let oh = h - k + 1 and ow = w - k + 1 in
  {
    kname = "conv2d";
    description = Printf.sprintf "%dx%d valid conv over %dx%d image" k k h w;
    args = [ ("img", [ h; w ]); ("ker", [ k; k ]); ("out", [ oh; ow ]) ];
    outputs = [ "out" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let f =
          Builder.func b "conv2d"
            ~args:
              [ ("img", mref [ h; w ]); ("ker", mref [ k; k ]);
                ("out", mref [ oh; ow ]) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ img; ker; out ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:oh (fun b i _ ->
                         ignore
                           (Builder.affine_for b ~lb:0 ~ub:ow
                              ~attrs:(middle_attrs d) (fun b j _ ->
                                let zero = Builder.constant_f b 0.0 in
                                let acc0 =
                                  Builder.affine_for b ~lb:0 ~ub:k
                                    ~iters:[ zero ]
                                    ~attrs:
                                      (match d.strategy with
                                      | Middle -> [ ("hls.unroll", Attr.Bool true) ]
                                      | Inner -> [])
                                    (fun b ki iters ->
                                      let acc1 =
                                        Builder.affine_for b ~lb:0 ~ub:k
                                          ~iters:[ List.hd iters ]
                                          ~attrs:(inner_attrs d)
                                          (fun b kj it2 ->
                                            let kv =
                                              Builder.load b ker [ ki; kj ]
                                            in
                                            let iv =
                                              Builder.affine_load b img
                                                ~map:
                                                  (Affine_map.make ~num_dims:4
                                                     ~num_syms:0
                                                     [
                                                       Affine_expr.add
                                                         (Affine_expr.dim 0)
                                                         (Affine_expr.dim 2);
                                                       Affine_expr.add
                                                         (Affine_expr.dim 1)
                                                         (Affine_expr.dim 3);
                                                     ])
                                                [ i; j; ki; kj ]
                                            in
                                            let m = Builder.mulf b kv iv in
                                            [ Builder.addf b (List.hd it2) m ])
                                      in
                                      [ List.hd acc1 ])
                                in
                                Builder.store b (List.hd acc0) out [ i; j ];
                                []));
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ img; ker; out ] ->
          for i = 0 to oh - 1 do
            for j = 0 to ow - 1 do
              let acc = ref 0.0 in
              for ki = 0 to k - 1 do
                for kj = 0 to k - 1 do
                  acc :=
                    !acc
                    +. (ker.((ki * k) + kj) *. img.(((i + ki) * w) + j + kj))
                done
              done;
              out.((i * ow) + j) <- !acc
            done
          done
      | _ -> invalid_arg "conv2d reference");
  }

(* ------------------------------------------------------------------ *)
(* jacobi2d: one 5-point stencil sweep                                *)
(* ------------------------------------------------------------------ *)

let jacobi2d () : kernel =
  let n = 16 in
  {
    kname = "jacobi2d";
    description = "one 5-point Jacobi sweep over an NxN grid";
    args = [ ("A", [ n; n ]); ("B", [ n; n ]) ];
    outputs = [ "B" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let f =
          Builder.func b "jacobi2d"
            ~args:[ ("A", mty); ("B", mty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; bb ] ->
                  ignore
                    (Builder.affine_for b ~lb:1 ~ub:(n - 1)
                       ~attrs:(middle_attrs d) (fun b i _ ->
                         ignore
                           (Builder.affine_for b ~lb:1 ~ub:(n - 1)
                              ~attrs:(inner_attrs d) (fun b j _ ->
                                let at di dj =
                                  Builder.affine_load b a
                                    ~map:
                                      (Affine_map.make ~num_dims:2 ~num_syms:0
                                         [
                                           Affine_expr.add (Affine_expr.dim 0)
                                             (Affine_expr.const di);
                                           Affine_expr.add (Affine_expr.dim 1)
                                             (Affine_expr.const dj);
                                         ])
                                    [ i; j ]
                                in
                                let c = at 0 0 in
                                let l = at 0 (-1) in
                                let r = at 0 1 in
                                let u = at (-1) 0 in
                                let dn = at 1 0 in
                                let s1 = Builder.addf b c l in
                                let s2 = Builder.addf b s1 r in
                                let s3 = Builder.addf b s2 u in
                                let s4 = Builder.addf b s3 dn in
                                let fifth = Builder.constant_f b 0.2 in
                                let v = Builder.mulf b s4 fifth in
                                Builder.store b v bb [ i; j ];
                                []));
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; bb ] ->
          for i = 1 to n - 2 do
            for j = 1 to n - 2 do
              bb.((i * n) + j) <-
                0.2
                *. (a.((i * n) + j) +. a.((i * n) + j - 1)
                   +. a.((i * n) + j + 1)
                   +. a.(((i - 1) * n) + j)
                   +. a.(((i + 1) * n) + j))
            done
          done
      | _ -> invalid_arg "jacobi2d reference");
  }

(* ------------------------------------------------------------------ *)
(* syrk: C = A A^T + C (symmetric rank-k update, full form)           *)
(* ------------------------------------------------------------------ *)

let syrk () : kernel =
  let n = 14 in
  {
    kname = "syrk";
    description = "C = A A^T + C (rank-k update)";
    args = [ ("A", [ n; n ]); ("C", [ n; n ]) ];
    outputs = [ "C" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let f =
          Builder.func b "syrk"
            ~args:[ ("A", mty); ("C", mty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; c ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n (fun b i _ ->
                         ignore
                           (Builder.affine_for b ~lb:0 ~ub:n
                              ~attrs:(middle_attrs d) (fun b j _ ->
                                let init = Builder.load b c [ i; j ] in
                                let acc =
                                  Builder.affine_for b ~lb:0 ~ub:n
                                    ~iters:[ init ] ~attrs:(inner_attrs d)
                                    (fun b k iters ->
                                      let aik = Builder.load b a [ i; k ] in
                                      let ajk = Builder.load b a [ j; k ] in
                                      let m = Builder.mulf b aik ajk in
                                      [ Builder.addf b (List.hd iters) m ])
                                in
                                Builder.store b (List.hd acc) c [ i; j ];
                                []));
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; c ] ->
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let acc = ref c.((i * n) + j) in
              for k = 0 to n - 1 do
                acc := !acc +. (a.((i * n) + k) *. a.((j * n) + k))
              done;
              c.((i * n) + j) <- !acc
            done
          done
      | _ -> invalid_arg "syrk reference");
  }

(* ------------------------------------------------------------------ *)
(* doitgen: rank-3 tensor contraction (exercises rank-3 memrefs)      *)
(* ------------------------------------------------------------------ *)

let doitgen () : kernel =
  let r = 6 and q = 6 and p = 8 in
  {
    kname = "doitgen";
    description = "A[r][q][:] = A[r][q][:] x C4 (rank-3 tensor contraction)";
    args = [ ("A", [ r; q; p ]); ("C4", [ p; p ]); ("sum", [ p ]) ];
    outputs = [ "A"; "sum" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let aty = mref [ r; q; p ] in
        let cty = mref [ p; p ] in
        let sty = mref [ p ] in
        let f =
          Builder.func b "doitgen"
            ~args:[ ("A", aty); ("C4", cty); ("sum", sty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; c4; sum ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:r (fun b ri _ ->
                         ignore
                           (Builder.affine_for b ~lb:0 ~ub:q (fun b qi _ ->
                                ignore
                                  (Builder.affine_for b ~lb:0 ~ub:p
                                     ~attrs:(middle_attrs d) (fun b pi _ ->
                                       let zero = Builder.constant_f b 0.0 in
                                       let acc =
                                         Builder.affine_for b ~lb:0 ~ub:p
                                           ~iters:[ zero ]
                                           ~attrs:(inner_attrs d)
                                           (fun b s iters ->
                                             let av =
                                               Builder.load b a [ ri; qi; s ]
                                             in
                                             let cv =
                                               Builder.load b c4 [ s; pi ]
                                             in
                                             let m = Builder.mulf b av cv in
                                             [
                                               Builder.addf b (List.hd iters) m;
                                             ])
                                       in
                                       Builder.store b (List.hd acc) sum [ pi ];
                                       []));
                                (* write back *)
                                ignore
                                  (Builder.affine_for b ~lb:0 ~ub:p
                                     (fun b pi _ ->
                                       let sv = Builder.load b sum [ pi ] in
                                       Builder.store b sv a [ ri; qi; pi ];
                                       []));
                                []));
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a; c4; sum ] ->
          for ri = 0 to r - 1 do
            for qi = 0 to q - 1 do
              for pi = 0 to p - 1 do
                let acc = ref 0.0 in
                for s = 0 to p - 1 do
                  acc :=
                    !acc
                    +. (a.((((ri * q) + qi) * p) + s) *. c4.((s * p) + pi))
                done;
                sum.(pi) <- !acc
              done;
              for pi = 0 to p - 1 do
                a.((((ri * q) + qi) * p) + pi) <- sum.(pi)
              done
            done
          done
      | _ -> invalid_arg "doitgen reference");
  }

(* ------------------------------------------------------------------ *)
(* seidel2d: in-place Gauss–Seidel sweep (loop-carried through memory) *)
(* ------------------------------------------------------------------ *)

let seidel2d () : kernel =
  let n = 14 in
  {
    kname = "seidel2d";
    description = "one in-place Gauss-Seidel sweep over an NxN grid";
    args = [ ("A", [ n; n ]) ];
    outputs = [ "A" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let f =
          Builder.func b "seidel2d"
            ~args:[ ("A", mty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              let a = List.hd args in
              ignore
                (Builder.affine_for b ~lb:1 ~ub:(n - 1) (fun b i _ ->
                     ignore
                       (Builder.affine_for b ~lb:1 ~ub:(n - 1)
                          ~attrs:
                            (match d.strategy with
                            | Inner -> inner_attrs d
                            | Middle -> middle_attrs d)
                          (fun b j _ ->
                            let at di dj =
                              Builder.affine_load b a
                                ~map:
                                  (Affine_map.make ~num_dims:2 ~num_syms:0
                                     [
                                       Affine_expr.add (Affine_expr.dim 0)
                                         (Affine_expr.const di);
                                       Affine_expr.add (Affine_expr.dim 1)
                                         (Affine_expr.const dj);
                                     ])
                                [ i; j ]
                            in
                            let s1 = Builder.addf b (at (-1) (-1)) (at (-1) 0) in
                            let s2 = Builder.addf b s1 (at (-1) 1) in
                            let s3 = Builder.addf b s2 (at 0 (-1)) in
                            let s4 = Builder.addf b s3 (at 0 0) in
                            let s5 = Builder.addf b s4 (at 0 1) in
                            let s6 = Builder.addf b s5 (at 1 (-1)) in
                            let s7 = Builder.addf b s6 (at 1 0) in
                            let s8 = Builder.addf b s7 (at 1 1) in
                            let ninth = Builder.constant_f b (1.0 /. 9.0) in
                            let v = Builder.mulf b s8 ninth in
                            Builder.store b v a [ i; j ];
                            []));
                     []));
              Builder.ret b [])
        in
        { Ir.funcs = [ f ] });
    reference =
      (function
      | [ a ] ->
          for i = 1 to n - 2 do
            for j = 1 to n - 2 do
              a.((i * n) + j) <-
                (a.(((i - 1) * n) + j - 1)
                +. a.(((i - 1) * n) + j)
                +. a.(((i - 1) * n) + j + 1)
                +. a.((i * n) + j - 1)
                +. a.((i * n) + j)
                +. a.((i * n) + j + 1)
                +. a.(((i + 1) * n) + j - 1)
                +. a.(((i + 1) * n) + j)
                +. a.(((i + 1) * n) + j + 1))
                /. 9.0
            done
          done
      | _ -> invalid_arg "seidel2d reference");
  }

(* ------------------------------------------------------------------ *)
(* mmcall: gemm split across two functions (exercises func.call,      *)
(* user-function calls in the C round-trip, and HLS inlining)         *)
(* ------------------------------------------------------------------ *)

let mmcall () : kernel =
  let n = 12 in
  {
    kname = "mmcall";
    description = "C = A x B with the row computation in a helper function";
    args = [ ("A", [ n; n ]); ("B", [ n; n ]); ("C", [ n; n ]) ];
    outputs = [ "C" ];
    build =
      (fun d ->
        let b = Builder.create () in
        let mty = mref [ n; n ] in
        let helper =
          Builder.func b "mm_row"
            ~args:[ ("A", mty); ("B", mty); ("C", mty); ("i", Types.Index) ]
            ~ret_tys:[]
            (fun b args ->
              match args with
              | [ a; bb; c; i ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n ~attrs:(middle_attrs d)
                       (fun b j _ ->
                         let zero = Builder.constant_f b 0.0 in
                         let acc =
                           Builder.affine_for b ~lb:0 ~ub:n ~iters:[ zero ]
                             ~attrs:(inner_attrs d) (fun b k iters ->
                               let av = Builder.load b a [ i; k ] in
                               let bv = Builder.load b bb [ k; j ] in
                               let m = Builder.mulf b av bv in
                               [ Builder.addf b (List.hd iters) m ])
                         in
                         Builder.store b (List.hd acc) c [ i; j ];
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        let top =
          Builder.func b "mmcall"
            ~args:[ ("A", mty); ("B", mty); ("C", mty) ]
            ~ret_tys:[] ~fattrs:(fattrs_of d)
            (fun b args ->
              match args with
              | [ a; bb; c ] ->
                  ignore
                    (Builder.affine_for b ~lb:0 ~ub:n (fun b i _ ->
                         ignore
                           (Builder.call b "mm_row" ~ret_tys:[]
                              [ a; bb; c; i ]);
                         []));
                  Builder.ret b []
              | _ -> assert false)
        in
        { Ir.funcs = [ helper; top ] });
    reference =
      (function
      | [ a; bb; c ] -> ref_matmul ~n ~m:n ~k:n c a bb
      | _ -> invalid_arg "mmcall reference");
  }

(* ------------------------------------------------------------------ *)

(** The evaluation suite (paper-style kernel set). *)
let all () : kernel list =
  [
    gemm ();
    mm2 ();
    mm3 ();
    atax ();
    bicg ();
    mvt ();
    gesummv ();
    fir ();
    conv2d ();
    jacobi2d ();
    syrk ();
    doitgen ();
    seidel2d ();
    mmcall ();
  ]

let by_name name =
  List.find_opt (fun k -> k.kname = name) (all ())
