(** Adaptor pass 3: reconstruct typed pointers from opaque pointers.

    Vitis HLS's LLVM predates opaque pointers, so every [ptr] value
    must become a [T*].  Pointee types are inferred by a fixpoint
    dataflow over the pointer-producing and pointer-consuming
    instructions:

    - [alloca T]              defines its result as [T*];
    - [getelementptr T, p, …] constrains [p : T*] and defines its
      result by walking [T] through the trailing indices;
    - [load T, p]             constrains [p : T*];
    - [store v, p]            constrains [p : typeof(v)*];
    - [phi]/[select]/[freeze] propagate both ways;
    - calls constrain arguments by the callee's (already reconstructed)
      parameter types.

    A pointer with conflicting constraints keeps the first type and the
    conflicting uses get explicit [bitcast]s (Vitis-era Clang output is
    full of those).  A pointer with no constraints at all becomes
    [i8*]. *)

open Llvmir
open Linstr
module Sym = Support.Interner

type stats = {
  mutable typed : int;  (** pointers given a concrete pointee *)
  mutable bitcasts : int;  (** compensating casts inserted *)
  mutable defaulted : int;  (** unconstrained pointers defaulted to i8* *)
}

let fresh_stats () = { typed = 0; bitcasts = 0; defaulted = 0 }

(** Walk an aggregate type through trailing GEP indices. *)
let rec walk_gep_ty ty idxs =
  match idxs with
  | [] -> Some ty
  | idx :: rest -> (
      match ty with
      | Ltype.Array (_, elt) -> walk_gep_ty elt rest
      | Ltype.Struct fields -> (
          match Lvalue.const_int_value idx with
          | Some k when k >= 0 && k < List.length fields ->
              walk_gep_ty (List.nth fields k) rest
          | _ -> None)
      | _ -> None)

let run_func ~stats
    ~(signatures : (string, Ltype.t list * Ltype.t) Hashtbl.t)
    (f : Lmodule.func) : Lmodule.func =
  (* pointee : register/param symbol -> inferred pointee type *)
  let pointee : Ltype.t Sym.Tbl.t = Sym.Tbl.create 32 in
  let is_opaque_reg (v : Lvalue.t) =
    match v with
    | Lvalue.Reg (n, Ltype.Ptr None) -> Some n
    | _ -> None
  in
  let constrain name ty =
    match Sym.Tbl.find_opt pointee name with
    | None ->
        Sym.Tbl.replace pointee name ty;
        true
    | Some t -> not (Ltype.equal t ty) |> fun _conflict -> false
  in
  (* fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    Lmodule.iter_insts
      (fun (i : Linstr.t) ->
        let c name ty = if constrain name ty then changed := true in
        match i.op with
        | Alloca (ty, _) -> if not (Sym.is_empty i.result) then c i.result ty
        | Load (ty, p) -> (
            match is_opaque_reg p with Some n -> c n ty | None -> ())
        | Store (v, p) -> (
            match is_opaque_reg p with
            | Some n -> c n (Lvalue.type_of v)
            | None -> ())
        | Gep { src_ty; base; idxs; _ } -> (
            (match is_opaque_reg base with
            | Some n -> c n src_ty
            | None -> ());
            if (not (Sym.is_empty i.result)) && Ltype.is_opaque_pointer i.ty then
              match idxs with
              | _ :: rest -> (
                  match walk_gep_ty src_ty rest with
                  | Some t -> c i.result t
                  | None -> ())
              | [] -> c i.result src_ty)
        | Select (_, a, b) | Phi [ (a, _); (b, _) ] -> (
            let named = [ is_opaque_reg a; is_opaque_reg b ] in
            let known =
              List.filter_map
                (fun o ->
                  match o with
                  | Some n -> Sym.Tbl.find_opt pointee n
                  | None -> None)
                named
            in
            match known with
            | ty :: _ ->
                List.iter
                  (function Some n -> c n ty | None -> ())
                  named;
                if (not (Sym.is_empty i.result)) && Ltype.is_opaque_pointer i.ty
                then c i.result ty
            | [] -> ())
        | Call { callee; args; _ } -> (
            match Hashtbl.find_opt signatures callee with
            | Some (param_tys, _) ->
                List.iteri
                  (fun k arg ->
                    match (is_opaque_reg arg, List.nth_opt param_tys k) with
                    | Some n, Some (Ltype.Ptr (Some t)) -> c n t
                    | _ -> ())
                  args
            | None -> ())
        | _ -> ())
      f;
    (* parameters are just names; loads above already constrain them *)
    ()
  done;
  (* assign final types *)
  let final_ty name =
    match Sym.Tbl.find_opt pointee name with
    | Some t ->
        stats.typed <- stats.typed + 1;
        Ltype.ptr t
    | None ->
        stats.defaulted <- stats.defaulted + 1;
        Ltype.ptr Ltype.I8
  in
  let new_reg_ty : Ltype.t Sym.Tbl.t = Sym.Tbl.create 32 in
  List.iter
    (fun (p : Lmodule.param) ->
      if Ltype.is_opaque_pointer p.pty then
        let pn = Sym.intern p.pname in
        Sym.Tbl.replace new_reg_ty pn (final_ty pn))
    f.params;
  Lmodule.iter_insts
    (fun i ->
      if (not (Sym.is_empty i.result)) && Ltype.is_opaque_pointer i.ty then
        Sym.Tbl.replace new_reg_ty i.result (final_ty i.result))
    f;
  let retype (v : Lvalue.t) =
    match v with
    | Lvalue.Reg (n, Ltype.Ptr None) -> (
        match Sym.Tbl.find_opt new_reg_ty n with
        | Some t -> Lvalue.Reg (n, t)
        | None -> v)
    | _ -> v
  in
  let params =
    List.map
      (fun (p : Lmodule.param) ->
        match Sym.Tbl.find_opt new_reg_ty (Sym.intern p.pname) with
        | Some t -> { p with Lmodule.pty = t }
        | None -> p)
      f.params
  in
  let names = Lmodule.namegen f in
  (* rewrite instructions: retype operands/results, fix mismatches with
     bitcasts *)
  let rw (i : Linstr.t) : Linstr.t list =
    let i = Linstr.map_operands retype i in
    let i =
      if (not (Sym.is_empty i.result)) && Ltype.is_opaque_pointer i.ty then
        match Sym.Tbl.find_opt new_reg_ty i.result with
        | Some t -> { i with ty = t }
        | None -> i
      else i
    in
    (* compensating bitcasts where the use needs a different pointee *)
    let pre = ref [] in
    let coerce (p : Lvalue.t) (want : Ltype.t) : Lvalue.t =
      match Lvalue.type_of p with
      | Ltype.Ptr (Some have) when not (Ltype.equal have want) ->
          stats.bitcasts <- stats.bitcasts + 1;
          let r = Support.Namegen.fresh names "cast" in
          pre :=
            Linstr.make ~result:r ~ty:(Ltype.ptr want)
              (Cast (Bitcast, p, Ltype.ptr want))
            :: !pre;
          Lvalue.reg r (Ltype.ptr want)
      | _ -> p
    in
    let i' =
      match i.op with
      | Load (ty, p) -> { i with op = Load (ty, coerce p ty) }
      | Store (v, p) -> { i with op = Store (v, coerce p (Lvalue.type_of v)) }
      | Gep ({ src_ty; base; _ } as g) ->
          { i with op = Gep { g with base = coerce base src_ty } }
      | _ -> i
    in
    (* GEP results: recompute the typed result pointer *)
    let i' =
      match i'.op with
      | Gep { src_ty; idxs; _ } when not (Sym.is_empty i'.result) -> (
          match idxs with
          | _ :: rest -> (
              match walk_gep_ty src_ty rest with
              | Some t when not (Ltype.is_opaque_pointer i'.ty) ->
                  { i' with ty = Ltype.ptr t }
              | Some t -> { i' with ty = Ltype.ptr t }
              | None -> i')
          | [] -> i')
      | _ -> i'
    in
    List.rev !pre @ [ i' ]
  in
  let f' = Lmodule.rewrite_insts rw { f with params } in
  (* after result retyping, operand occurrences of those registers must
     agree: remap all Reg occurrences through the final type table *)
  let final_map (v : Lvalue.t) =
    match v with
    | Lvalue.Reg (n, Ltype.Ptr None) -> (
        match Sym.Tbl.find_opt new_reg_ty n with
        | Some t -> Lvalue.Reg (n, t)
        | None -> v)
    | _ -> v
  in
  Lmodule.map_values final_map f'

(** Module-level driver.  Functions are processed in definition order;
    signatures of processed functions refine later call-site
    inference. *)
let run ~stats (m : Lmodule.t) : Lmodule.t =
  let signatures : (string, Ltype.t list * Ltype.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (d : Lmodule.decl) ->
      Hashtbl.replace signatures d.dname (d.dargs, d.dret))
    m.decls;
  let funcs =
    List.map
      (fun f ->
        let f' = run_func ~stats ~signatures f in
        Hashtbl.replace signatures f'.Lmodule.fname
          ( List.map (fun (p : Lmodule.param) -> p.pty) f'.Lmodule.params,
            f'.Lmodule.ret_ty );
        f')
      m.funcs
  in
  { m with funcs }
