(** Constant folding and instruction simplification.

    A single forward walk per iteration: constants and copies propagate
    through a substitution map, folded instructions disappear.
    Handles: integer/float binops on literals, comparisons, selects on
    literal conditions, casts of literals, algebraic identities
    ([x+0], [x*1], [x*0], [x-x], ...).

    Rounds walk the function index's rows: folded rows are marked dead,
    surviving rows are rewritten through the substitution, and the
    next round reads the rewritten rows — no per-round function
    rebuild.  Blocks are rebuilt once at the end, only when something
    folded. *)

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
  (* the post-verify index for [f] is already cached *)
  let idx = Analysis.findex ~am f in
  let n = Findex.n_instrs idx in
  (* the rows as rewritten so far, and the ones folded away *)
  let cur = Array.init n (Findex.instr idx) in
  let dead = Array.make n false in
  let changed = ref false in
  let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 32 in
  let replace k v =
    changed := true;
    dead.(k) <- true;
    Sym.Tbl.replace subst cur.(k).result v
  in
  let visit k =
    (* walk-time resolution — one probe per register operand *)
    cur.(k) <- Findex.substitute_instr subst cur.(k);
    match cur.(k).op with
    | IBin (op, va, vb) -> (
        match (va, vb) with
        | Const (CInt (x, ty)), Const (CInt (y, _)) -> (
            match fold_ibin op ty x y with
            | Some v -> replace k (Const (CInt (Linterp.norm_int ty v, ty)))
            | None -> ())
        | _ -> (
            (* algebraic identities *)
            match (op, va, vb) with
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
            | _ -> ()))
    | FBin (op, va, vb) -> (
        match (va, vb) with
        | Const (CFloat (x, ty)), Const (CFloat (y, _)) -> (
            match fold_fbin op x y with
            | Some v -> replace k (Const (CFloat (v, ty)))
            | None -> ())
        | _ -> (
            (* only the identities IEEE keeps exact at [x = -0.0]:
               [-0.0 + 0.0] is [+0.0], so [x + 0.0] is not [x] (and a
               float pattern [0.0] also matches [-0.0]) *)
            match (op, va, vb) with
            | FAdd, x, Const (CFloat (z, _)) when z = 0.0 && Float.sign_bit z
              ->
                replace k x
            | FAdd, Const (CFloat (z, _)), x when z = 0.0 && Float.sign_bit z
              ->
                replace k x
            | FSub, x, Const (CFloat (z, _))
              when z = 0.0 && not (Float.sign_bit z) ->
                replace k x
            | (FMul | FDiv), x, Const (CFloat (1.0, _))
            | FMul, Const (CFloat (1.0, _)), x ->
                replace k x
            | _ -> ()))
    | Icmp (p, Const (CInt (x, ty)), Const (CInt (y, _))) ->
        replace k (Const (CInt (fold_icmp p ty x y, Ltype.I1)))
    | Select (Const (CInt (c, _)), x, y) -> replace k (if c <> 0 then x else y)
    | Select (_, x, y) -> if Lvalue.equal x y then replace k x
    | Cast ((Sext | Zext | Trunc), Const (CInt (v, _)), ty) ->
        replace k (Const (CInt (Linterp.norm_int ty v, ty)))
    | Cast (Sitofp, Const (CInt (v, _)), ty) ->
        replace k (Const (CFloat (float_of_int v, ty)))
    | Cast ((Fpext | Fptrunc), Const (CFloat (v, _)), ty) ->
        replace k (Const (CFloat (v, ty)))
    | Phi incoming -> (
        (* all-same phi (ignoring self references) folds to the value *)
        let r = cur.(k).result in
        let v0 = ref None and all_same = ref true in
        List.iter
          (fun (v, _) ->
            let self =
              match v with Reg (x, _) -> Sym.equal x r | _ -> false
            in
            if not self then
              match !v0 with
              | None -> v0 := Some v
              | Some w -> if not (Lvalue.equal v w) then all_same := false)
          incoming;
        match !v0 with Some v when !all_same -> replace k v | _ -> ())
    | Freeze v -> if Lvalue.is_const v then replace k v
    | _ -> ()
  in
  (* forward passes until stable (substitutions can cascade) *)
  let rec go rounds =
    Sym.Tbl.reset subst;
    changed := false;
    for k = 0 to n - 1 do
      if not dead.(k) then visit k
    done;
    if !changed then begin
      (* apply any lingering substitutions to operands everywhere *)
      let resolved = Findex.compress_chains subst in
      for k = 0 to n - 1 do
        if not dead.(k) then cur.(k) <- Findex.substitute_instr resolved cur.(k)
      done;
      if rounds > 0 then go (rounds - 1)
    end
  in
  go 8;
  if not (Array.exists Fun.id dead) then f
  else
    {
      f with
      blocks = Findex.rebuild idx (fun k -> if dead.(k) then [] else [ cur.(k) ]);
    }
