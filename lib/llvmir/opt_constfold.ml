(** Constant folding and instruction simplification.

    A single forward walk per iteration: constants and copies propagate
    through a substitution map, folded instructions disappear.
    Handles: integer/float binops on literals, comparisons, selects on
    literal conditions, casts of literals, algebraic identities
    ([x+0], [x*1], [x*0], [x-x], ...).

    Iterations run in place on the packed {!Iarena}: the walk reads
    operand-pool slots, folded rows are killed, substitutions rewrite
    the slots of surviving rows, and the next round walks the same
    flat storage — no per-round function rebuild.  Materialisation
    happens once at the end, only when something folded. *)

open Linstr
open Lvalue
module Sym = Support.Interner

(* Folding must agree with {!Linterp.ibin_eval} bit-for-bit or the
   differential oracle would distinguish optimized from unoptimized IR;
   both defer to {!Support.Int_sem}.  Inputs normalize first so literal
   constants written outside the type's range fold the same way the
   interpreter evaluates them. *)
let fold_ibin op ty a b =
  let w = Ltype.int_width ty in
  let module S = Support.Int_sem in
  let a = Linterp.norm_int ty a and b = Linterp.norm_int ty b in
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | SDiv -> if b = 0 then None else Some (a / b)
  | SRem -> if b = 0 then None else Some (a mod b)
  | UDiv -> if b = 0 then None else Some (S.udiv ~width:w a b)
  | URem -> if b = 0 then None else Some (S.urem ~width:w a b)
  | Shl -> Some (S.shl ~width:w a b)
  | AShr -> Some (S.ashr ~width:w a b)
  | LShr -> Some (S.lshr ~width:w a b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)

let fold_fbin op a b =
  match op with
  | FAdd -> Some (a +. b)
  | FSub -> Some (a -. b)
  | FMul -> Some (a *. b)
  | FDiv -> Some (a /. b)
  | FRem -> Some (Float.rem a b)

let fold_icmp p ty a b =
  let a = Linterp.norm_int ty a and b = Linterp.norm_int ty b in
  if Linterp.icmp_eval p a b then 1 else 0

let run_func ~am (f : Lmodule.func) : Lmodule.func =
  (* the post-verify index for [f] is already cached, so its arena is
     free *)
  let a = Findex.arena (Analysis.findex ~am f) in
  let n = Iarena.n_instrs a in
  let changed = ref false in
  let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 32 in
  let replace k v =
    changed := true;
    Iarena.kill a k;
    Sym.Tbl.replace subst (Iarena.result a k) v
  in
  let visit k =
    let o = Iarena.op_off a k and l = Iarena.op_len a k in
    (* walk-time resolution, in place — one probe per register slot *)
    for s = o to o + l - 1 do
      match Iarena.opnd a s with
      | Reg (r, _) -> (
          match Sym.Tbl.find_opt subst r with
          | Some v' -> Iarena.set_opnd a k s v'
          | None -> ())
      | _ -> ()
    done;
    let tg = Iarena.tag a k in
    if tg = Iarena.tag_ibin then begin
      let va = Iarena.opnd a o and vb = Iarena.opnd a (o + 1) in
      match (va, vb) with
      | Const (CInt (x, ty)), Const (CInt (y, _)) -> (
          match fold_ibin (Iarena.ibinop a k) ty x y with
          | Some v -> replace k (Const (CInt (Linterp.norm_int ty v, ty)))
          | None -> ())
      | _ -> (
          (* algebraic identities *)
          match (Iarena.ibinop a k, va, vb) with
          | (Add | Sub | Or | Xor | Shl | AShr), x, Const (CInt (0, _))
          | (Add | Or), Const (CInt (0, _)), x
          | (Mul | SDiv), x, Const (CInt (1, _))
          | Mul, Const (CInt (1, _)), x ->
              replace k x
          | Mul, _, (Const (CInt (0, _)) as z)
          | Mul, (Const (CInt (0, _)) as z), _
          | And, _, (Const (CInt (0, _)) as z)
          | And, (Const (CInt (0, _)) as z), _ ->
              replace k z
          | Sub, Reg (x, ty), Reg (y, _) when Sym.equal x y ->
              replace k (Const (CInt (0, ty)))
          | _ -> ())
    end
    else if tg = Iarena.tag_fbin then begin
      let va = Iarena.opnd a o and vb = Iarena.opnd a (o + 1) in
      match (va, vb) with
      | Const (CFloat (x, ty)), Const (CFloat (y, _)) -> (
          match fold_fbin (Iarena.fbinop a k) x y with
          | Some v -> replace k (Const (CFloat (v, ty)))
          | None -> ())
      | _ -> (
          match (Iarena.fbinop a k, va, vb) with
          | (FAdd | FSub), x, Const (CFloat (0.0, _))
          | FAdd, Const (CFloat (0.0, _)), x
          | (FMul | FDiv), x, Const (CFloat (1.0, _))
          | FMul, Const (CFloat (1.0, _)), x ->
              replace k x
          | _ -> ())
    end
    else if tg = Iarena.tag_icmp then begin
      match (Iarena.opnd a o, Iarena.opnd a (o + 1)) with
      | Const (CInt (x, ty)), Const (CInt (y, _)) ->
          replace k
            (Const (CInt (fold_icmp (Iarena.icmp a k) ty x y, Ltype.I1)))
      | _ -> ()
    end
    else if tg = Iarena.tag_select then begin
      match Iarena.opnd a o with
      | Const (CInt (c, _)) ->
          replace k (Iarena.opnd a (if c <> 0 then o + 1 else o + 2))
      | _ ->
          let x = Iarena.opnd a (o + 1) and y = Iarena.opnd a (o + 2) in
          if Lvalue.equal x y then replace k x
    end
    else if tg = Iarena.tag_cast then begin
      match (Iarena.cast a k, Iarena.opnd a o) with
      | (Sext | Zext | Trunc), Const (CInt (v, _)) ->
          let ty = Iarena.ty_of_ix a (Iarena.aux0 a k) in
          replace k (Const (CInt (Linterp.norm_int ty v, ty)))
      | Sitofp, Const (CInt (v, _)) ->
          replace k
            (Const (CFloat (float_of_int v, Iarena.ty_of_ix a (Iarena.aux0 a k))))
      | (Fpext | Fptrunc), Const (CFloat (v, _)) ->
          replace k (Const (CFloat (v, Iarena.ty_of_ix a (Iarena.aux0 a k))))
      | _ -> ()
    end
    else if tg = Iarena.tag_phi then begin
      (* all-same phi (ignoring self references) folds to the value *)
      let r = Iarena.result a k in
      let v0 = ref None and all_same = ref true in
      for i = 0 to l - 1 do
        let v = Iarena.opnd a (o + i) in
        let self =
          match v with Reg (x, _) -> Sym.equal x r | _ -> false
        in
        if not self then
          match !v0 with
          | None -> v0 := Some v
          | Some w -> if not (Lvalue.equal v w) then all_same := false
      done;
      match !v0 with
      | Some v when !all_same -> replace k v
      | _ -> ()
    end
    else if tg = Iarena.tag_freeze then begin
      let v = Iarena.opnd a o in
      if Lvalue.is_const v then replace k v
    end
  in
  (* forward passes until stable (substitutions can cascade) *)
  let rec go rounds =
    Sym.Tbl.reset subst;
    changed := false;
    for k = 0 to n - 1 do
      if not (Iarena.is_dead a k) then visit k
    done;
    if !changed then begin
      (* apply any lingering substitutions to operands everywhere *)
      let resolved = Findex.compress_chains subst in
      for k = 0 to n - 1 do
        if not (Iarena.is_dead a k) then begin
          let o = Iarena.op_off a k in
          for s = o to o + Iarena.op_len a k - 1 do
            match Iarena.opnd a s with
            | Reg (r, _) -> (
                match Sym.Tbl.find_opt resolved r with
                | Some v' -> Iarena.set_opnd a k s v'
                | None -> ())
            | _ -> ()
          done
        end
      done;
      if rounds > 0 then go (rounds - 1)
    end
  in
  go 8;
  if Iarena.live_count a = n then f else Analysis.materialize ~am f a
