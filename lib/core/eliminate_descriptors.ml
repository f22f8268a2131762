(** Adaptor pass 2: memref-descriptor elimination and access
    delinearization — the "keep more expression details" step.

    MLIR's LLVM lowering turns every statically-shaped memref into a
    [{ ptr, ptr, i64, [r x i64], [r x i64] }] aggregate built by an
    [insertvalue] chain, and every access into a {e flat} GEP over a
    linearized index.  The Vitis-era middle-end cannot map that onto
    BRAMs (no array shape left to partition, descriptor structs are
    unsynthesizable).  This pass:

    1. finds descriptor chains whose shape/stride fields are literal
       constants, recording the underlying data pointer;
    2. replaces [extractvalue] uses of the descriptor by the data
       pointer / literal constants;
    3. rewrites flat GEPs over a known data pointer into
       multi-dimensional GEPs over the nested array type
       ([getelementptr [32 x [32 x float]], ptr %A, i64 0, i64 %i, i64 %j]),
       reconstructing the per-dimension indices from the linear
       expression's term structure;
    4. leaves the dead [insertvalue] chains to a DCE sweep.

    Accesses whose linear expression cannot be matched against the
    static strides fall back to a one-dimensional
    [[total x elem]] view — still typed, still synthesizable, but
    reported in {!stats} (and visible in Figure 3's partitioning
    experiment as a lost optimization opportunity). *)

open Llvmir
open Linstr
module Sym = Support.Interner

type desc_info = {
  data : Lvalue.t;  (** underlying data pointer (field 1) *)
  shape : int list;
  strides : int list;
  elem : Ltype.t option;  (** element type, discovered from accesses *)
}

type stats = {
  mutable descriptors : int;  (** descriptor chains eliminated *)
  mutable delinearized : int;  (** GEPs rebuilt with full rank *)
  mutable flat_fallback : int;  (** GEPs that kept a 1-D view *)
}

let fresh_stats () = { descriptors = 0; delinearized = 0; flat_fallback = 0 }

(** Is [ty] shaped like a rank-[r] memref descriptor? *)
let descriptor_rank (ty : Ltype.t) : int option =
  match ty with
  | Ltype.Struct
      [ Ltype.Ptr _; Ltype.Ptr _; Ltype.I64;
        Ltype.Array (r1, Ltype.I64); Ltype.Array (r2, Ltype.I64) ]
    when r1 = r2 ->
      Some r1
  | _ -> None

(** Follow an insertvalue chain upward, recording field values. *)
let trace_chain (idx : Findex.t) (root : Sym.t) :
    (int list * Lvalue.t) list option =
  let rec go name acc fuel =
    if fuel = 0 then None
    else
      match Findex.def_instr idx name with
      | Some { op = InsertValue (agg, v, path); _ } -> (
          let acc = if List.mem_assoc path acc then acc else (path, v) :: acc in
          match agg with
          | Lvalue.Reg (n, _) -> go n acc (fuel - 1)
          | Lvalue.Const (Lvalue.CUndef _) | Lvalue.Const (Lvalue.CZero _) ->
              Some acc
          | _ -> None)
      | _ -> None
  in
  go root [] 64

(** Extract a static descriptor description from a traced chain. *)
let info_of_chain rank (fields : (int list * Lvalue.t) list) : desc_info option
    =
  let find path = List.assoc_opt path fields in
  let const path =
    match find path with
    | Some (Lvalue.Const (Lvalue.CInt (v, _))) -> Some v
    | _ -> None
  in
  let data = match find [ 1 ] with Some v -> Some v | None -> find [ 0 ] in
  let shape = List.map (fun i -> const [ 3; i ]) (List.init rank Fun.id) in
  let strides = List.map (fun i -> const [ 4; i ]) (List.init rank Fun.id) in
  let all_some l =
    if List.for_all Option.is_some l then Some (List.map Option.get l)
    else None
  in
  match (data, all_some shape, all_some strides) with
  | Some data, Some shape, Some strides ->
      Some { data; shape; strides; elem = None }
  | _ -> None

(** Decompose a linear-index value into [(value option, coefficient)]
    terms; [None] value = literal constant term. *)
let rec collect_terms (idx : Findex.t) (v : Lvalue.t)
    ~fuel : (Lvalue.t option * int) list option =
  if fuel = 0 then None
  else
    match v with
    | Lvalue.Const (Lvalue.CInt (c, _)) -> Some [ (None, c) ]
    | Lvalue.Reg (n, _) -> (
        match Findex.def_instr idx n with
        | Some { op = IBin (Add, a, b); _ } -> (
            match
              ( collect_terms idx a ~fuel:(fuel - 1),
                collect_terms idx b ~fuel:(fuel - 1) )
            with
            | Some ta, Some tb -> Some (ta @ tb)
            | _ -> None)
        | Some { op = IBin (Mul, x, Lvalue.Const (Lvalue.CInt (c, _))); _ } ->
            Some [ (Some x, c) ]
        | Some { op = IBin (Mul, Lvalue.Const (Lvalue.CInt (c, _)), x); _ } ->
            Some [ (Some x, c) ]
        | Some { op = IBin (Shl, x, Lvalue.Const (Lvalue.CInt (c, _))); _ } ->
            Some [ (Some x, 1 lsl c) ]
        | _ -> Some [ (Some v, 1) ])
    | _ -> Some [ (Some v, 1) ]

(** Match terms against row-major strides.  Returns per-dimension index
    {e specs}: either an existing value, a constant, or a sum that the
    caller must materialize. *)
type index_spec =
  | Ival of Lvalue.t
  | Iconst of int
  | Isum of Lvalue.t list  (* plus an implicit constant *)
  | IsumC of Lvalue.t list * int

let match_strides (terms : (Lvalue.t option * int) list) (strides : int list) :
    index_spec list option =
  (* Greedy: for each stride (descending), collect terms whose
     coefficient is an exact multiple of it but not of any larger
     stride; with row-major static shapes the coefficients of index
     [k] equal [strides.(k)] exactly, so exact matching suffices. *)
  let remaining = ref terms in
  let take pred =
    let yes, no = List.partition pred !remaining in
    remaining := no;
    yes
  in
  let specs =
    List.map
      (fun stride ->
        let matched = take (fun (_, c) -> c = stride) in
        let vals = List.filter_map fst matched in
        let consts =
          List.fold_left
            (fun acc (v, _) -> if v = None then acc + 1 else acc)
            0 matched
        in
        (* each matched constant term contributes stride*1, i.e. index 1 *)
        match (vals, consts) with
        | [ v ], 0 -> Ival v
        | [], c -> Iconst c
        | vs, 0 -> Isum vs
        | vs, c -> IsumC (vs, c))
      strides
  in
  if !remaining = [] then Some specs else None

(** [delinearize = false] keeps every access on a flat 1-D view (the
    ablation of the paper's "keep more expression details" step). *)
let run_func ~stats ~delinearize ~am (f : Lmodule.func) : Lmodule.func =
  (* Cheap pre-scan: descriptors only ever enter a function through an
     [insertvalue] of descriptor-shaped aggregate type.  Without one,
     discovery finds nothing and every rewrite below is the identity,
     so skip the index build, the rewrite walk and the cleanup DCE. *)
  let has_descriptor =
    List.exists
      (fun (b : Lmodule.block) ->
        List.exists
          (fun (i : Linstr.t) ->
            (match i.op with InsertValue _ -> true | _ -> false)
            && (not (Sym.is_empty i.result))
            && descriptor_rank i.ty <> None)
          b.insts)
      f.blocks
  in
  if not has_descriptor then f
  else
  let fidx = Analysis.findex ~am f in
  let names = Lmodule.namegen f in
  (* 1. discover descriptors *)
  let desc_tbl : desc_info Sym.Tbl.t = Sym.Tbl.create 8 in
  Lmodule.iter_insts
    (fun i ->
      if not (Sym.is_empty i.result) then
        match descriptor_rank i.ty with
        | Some rank when (match i.op with InsertValue _ -> true | _ -> false)
          -> (
            match trace_chain fidx i.result with
            | Some fields -> (
                match info_of_chain rank fields with
                | Some info -> Sym.Tbl.replace desc_tbl i.result info
                | None -> ())
            | None -> ())
        | _ -> ())
    f;
  (* data-pointer -> descriptor info (for GEP rewriting) *)
  let by_data : desc_info Sym.Tbl.t = Sym.Tbl.create 8 in
  Sym.Tbl.iter
    (fun _ info ->
      match info.data with
      | Lvalue.Reg (n, _) -> Sym.Tbl.replace by_data n info
      | _ -> ())
    desc_tbl;
  stats.descriptors <- stats.descriptors + Sym.Tbl.length by_data;
  if Sym.Tbl.length desc_tbl = 0 then f
  else begin
  (* 2+3. rewrite extractvalues and geps *)
  let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 16 in
  let resolve v =
    match v with
    | Lvalue.Reg (n, _) -> (
        match Sym.Tbl.find_opt subst n with Some v' -> v' | None -> v)
    | _ -> v
  in
  let nested_array_ty elem shape =
    List.fold_right (fun d acc -> Ltype.Array (d, acc)) shape elem
  in
  let rw (i : Linstr.t) : Linstr.t list =
    let i = Linstr.map_operands resolve i in
    match i.op with
    | ExtractValue (Lvalue.Reg (agg, _), path)
      when Sym.Tbl.mem desc_tbl agg -> (
        let info = Sym.Tbl.find desc_tbl agg in
        match path with
        | [ 0 ] | [ 1 ] ->
            Sym.Tbl.replace subst i.result info.data;
            []
        | [ 2 ] ->
            Sym.Tbl.replace subst i.result (Lvalue.ci64 0);
            []
        | [ 3; k ] ->
            Sym.Tbl.replace subst i.result (Lvalue.ci64 (List.nth info.shape k));
            []
        | [ 4; k ] ->
            Sym.Tbl.replace subst i.result
              (Lvalue.ci64 (List.nth info.strides k));
            []
        | _ -> [ i ])
    | Gep { base = Lvalue.Reg (bn, bty); idxs = [ lin ]; src_ty; inbounds }
      when Sym.Tbl.mem by_data bn
           && not (Ltype.is_aggregate src_ty) -> (
        let info = Sym.Tbl.find by_data bn in
        let elem = src_ty in
        let arr_ty = nested_array_ty elem info.shape in
        let base = Lvalue.Reg (bn, bty) in
        let emit_gep specs =
          (* materialize Isum/IsumC specs as add instructions *)
          let extra = ref [] in
          let idx_of = function
            | Ival v -> v
            | Iconst c -> Lvalue.ci64 c
            | Isum [] -> Lvalue.ci64 0
            | Isum (v0 :: vs) ->
                List.fold_left
                  (fun acc v ->
                    let r = Support.Namegen.fresh names "idx" in
                    extra :=
                      Linstr.make ~result:r ~ty:Ltype.I64
                        (IBin (Add, acc, v))
                      :: !extra;
                    Lvalue.reg r Ltype.I64)
                  v0 vs
            | IsumC (vs, c) ->
                let base_v =
                  match vs with
                  | [] -> Lvalue.ci64 c
                  | v0 :: rest ->
                      List.fold_left
                        (fun acc v ->
                          let r = Support.Namegen.fresh names "idx" in
                          extra :=
                            Linstr.make ~result:r ~ty:Ltype.I64
                              (IBin (Add, acc, v))
                            :: !extra;
                          Lvalue.reg r Ltype.I64)
                        v0 rest
                in
                if c = 0 || vs = [] then base_v
                else begin
                  let r = Support.Namegen.fresh names "idx" in
                  extra :=
                    Linstr.make ~result:r ~ty:Ltype.I64
                      (IBin (Add, base_v, Lvalue.ci64 c))
                    :: !extra;
                  Lvalue.reg r Ltype.I64
                end
          in
          let idxs = Lvalue.ci64 0 :: List.map idx_of specs in
          List.rev !extra
          @ [
              {
                i with
                op = Gep { inbounds; src_ty = arr_ty; base; idxs };
              };
            ]
        in
        match (if delinearize then collect_terms fidx lin ~fuel:64 else None) with
        | Some terms -> (
            match match_strides terms info.strides with
            | Some specs ->
                stats.delinearized <- stats.delinearized + 1;
                emit_gep specs
            | None ->
                stats.flat_fallback <- stats.flat_fallback + 1;
                let total = List.fold_left ( * ) 1 info.shape in
                [
                  {
                    i with
                    op =
                      Gep
                        {
                          inbounds;
                          src_ty = Ltype.Array (total, elem);
                          base;
                          idxs = [ Lvalue.ci64 0; lin ];
                        };
                  };
                ])
        | None ->
            stats.flat_fallback <- stats.flat_fallback + 1;
            let total = List.fold_left ( * ) 1 info.shape in
            [
              {
                i with
                op =
                  Gep
                    {
                      inbounds;
                      src_ty = Ltype.Array (total, elem);
                      base;
                      idxs = [ Lvalue.ci64 0; lin ];
                    };
              };
            ])
    | _ -> [ i ]
  in
  let f' = Lmodule.rewrite_insts rw f in
  let f' = Findex.substitute_func subst f' in
  (* the insertvalue chains are now dead; [am] caches the index the
     cleanup DCE builds for the verifier, and the rewrite kept the
     block skeleton, so the CFG and dominator tree carry over *)
  Analysis.rewritten am f';
  Opt_dce.run_func ~am f'
  end

let run ~stats ~delinearize ~am (m : Lmodule.t) : Lmodule.t =
  Lmodule.map_funcs (run_func ~stats ~delinearize ~am) m
