(** May/must/no-alias oracle: root classification over
    {!Findex.base_pointer} chains plus a per-dimension GEP subscript
    delta compare.  See the interface for the contract. *)

open Linstr
module Sym = Support.Interner

(* ------------------------------------------------------------------ *)
(* Affine forms (moved here from Memdep, which re-exports them)       *)
(* ------------------------------------------------------------------ *)

type form = { terms : (Sym.t * int) list; konst : int }

let const_form c = { terms = []; konst = c }
let atom_form n = { terms = [ (n, 1) ]; konst = 0 }

let norm_terms terms =
  List.filter
    (fun (_, c) -> c <> 0)
    (List.sort (fun (a, _) (b, _) -> Sym.compare_name a b) terms)

let form_add a b =
  let merged =
    List.fold_left
      (fun acc (n, c) ->
        let prev = Option.value ~default:0 (List.assoc_opt n acc) in
        (n, prev + c) :: List.remove_assoc n acc)
      a.terms b.terms
  in
  { terms = norm_terms merged; konst = a.konst + b.konst }

let form_scale k f =
  {
    terms = norm_terms (List.map (fun (n, c) -> (n, c * k)) f.terms);
    konst = f.konst * k;
  }

let form_sub a b = form_add a (form_scale (-1) b)
let coeff_of (f : form) (n : Sym.t) = Option.value ~default:0 (List.assoc_opt n f.terms)
let drop_atom (f : form) (n : Sym.t) = { f with terms = List.remove_assoc n f.terms }

(** Expand a value into an affine form over atoms.  Registers with a
    non-affine definition become atoms themselves, which keeps the
    result sound: an SSA register has exactly one value per dynamic
    instance. *)
let form_of (idx : Findex.t) (v : Lvalue.t) : form option =
  let rec go depth v =
    if depth > 24 then None
    else
      match v with
      | Lvalue.Const (Lvalue.CInt (c, _)) -> Some (const_form c)
      | Lvalue.Const (Lvalue.CZero _) -> Some (const_form 0)
      | Lvalue.Const _ -> None
      | Lvalue.Global (n, _) -> Some (atom_form n)
      | Lvalue.Reg (n, _) -> (
          match Findex.def_instr idx n with
          | None -> Some (atom_form n)  (* parameter *)
          | Some i -> (
              match i.op with
              | IBin (Add, a, b) -> (
                  match (go (depth + 1) a, go (depth + 1) b) with
                  | Some fa, Some fb -> Some (form_add fa fb)
                  | _ -> Some (atom_form n))
              | IBin (Sub, a, b) -> (
                  match (go (depth + 1) a, go (depth + 1) b) with
                  | Some fa, Some fb -> Some (form_sub fa fb)
                  | _ -> Some (atom_form n))
              | IBin (Mul, a, b) -> (
                  match (Lvalue.const_int_value a, Lvalue.const_int_value b) with
                  | Some k, _ -> (
                      match go (depth + 1) b with
                      | Some fb -> Some (form_scale k fb)
                      | None -> Some (atom_form n))
                  | _, Some k -> (
                      match go (depth + 1) a with
                      | Some fa -> Some (form_scale k fa)
                      | None -> Some (atom_form n))
                  | _ -> Some (atom_form n))
              | IBin (Shl, a, b) -> (
                  match Lvalue.const_int_value b with
                  | Some k when k >= 0 && k < 31 -> (
                      match go (depth + 1) a with
                      | Some fa -> Some (form_scale (1 lsl k) fa)
                      | None -> Some (atom_form n))
                  | _ -> Some (atom_form n))
              | Cast ((Sext | Zext | Trunc), src, _) -> go (depth + 1) src
              | _ -> Some (atom_form n)))
  in
  go 0 v

(* ------------------------------------------------------------------ *)
(* Roots                                                              *)
(* ------------------------------------------------------------------ *)

type root = Rparam of int | Ralloca | Rglobal | Runknown

let root_of ?globals (idx : Findex.t) (v : Lvalue.t) :
    (Sym.t * root) option =
  match v with
  | Lvalue.Global (n, _) -> Some (n, Rglobal)
  | _ -> (
      match Findex.base_pointer idx v with
      | None -> None
      | Some n -> (
          match Findex.def idx n with
          | Some (Findex.Param i) -> Some (n, Rparam i)
          | Some (Findex.Instr k) -> (
              match (Findex.instr idx k).op with
              | Alloca _ -> Some (n, Ralloca)
              | _ -> Some (n, Runknown))
          | None -> (
              (* not defined locally: a global reference, unless a
                 globals set says otherwise *)
              match globals with
              | None -> Some (n, Rglobal)
              | Some gs ->
                  if Sym.Set.mem n gs then Some (n, Rglobal)
                  else Some (n, Runknown))))

(* ------------------------------------------------------------------ *)
(* Subscripts                                                         *)
(* ------------------------------------------------------------------ *)

let rec strip_bitcast (idx : Findex.t) (v : Lvalue.t) : Lvalue.t =
  match v with
  | Lvalue.Reg (n, _) -> (
      match Findex.def_instr idx n with
      | Some { op = Cast (Bitcast, src, _); _ } -> strip_bitcast idx src
      | _ -> v)
  | _ -> v

(** GEP path of a pointer: the source type the indices walk and one
    affine form per index.  [path_ty = None] means the pointer is the
    root itself (no GEP).  Requires the address to be root + one GEP,
    bitcasts stripped on both ends; anything else is opaque. *)
type path = { path_ty : Ltype.t option; path_subs : form list }

let gep_path (idx : Findex.t) (p : Lvalue.t) : path option =
  let direct = Some { path_ty = None; path_subs = [] } in
  match strip_bitcast idx p with
  | Lvalue.Reg (n, _) -> (
      match Findex.def_instr idx n with
      | Some { op = Gep { base; idxs; src_ty; _ }; _ } -> (
          let base_is_root =
            match strip_bitcast idx base with
            | Lvalue.Reg (bn, _) -> (
                match Findex.def_instr idx bn with
                | None -> true  (* parameter *)
                | Some { op = Alloca _; _ } -> true
                | Some _ -> false)
            | Lvalue.Global _ -> true
            | _ -> false
          in
          if not base_is_root then None
          else
            let forms = List.map (form_of idx) idxs in
            if List.for_all Option.is_some forms then
              Some
                { path_ty = Some src_ty; path_subs = List.map Option.get forms }
            else None)
      | None -> direct  (* scalar pointer parameter: zero subscripts *)
      | Some { op = Alloca _; _ } -> direct
      | Some _ -> None)
  | Lvalue.Global _ -> direct
  | _ -> None

let subscripts (idx : Findex.t) (p : Lvalue.t) : form list option =
  Option.map (fun pa -> pa.path_subs) (gep_path idx p)

(* ------------------------------------------------------------------ *)
(* The oracle                                                         *)
(* ------------------------------------------------------------------ *)

type verdict = No_alias | May_alias | Must_alias

let verdict_to_string = function
  | No_alias -> "no-alias"
  | May_alias -> "may-alias"
  | Must_alias -> "must-alias"

let known = function Rparam _ | Ralloca | Rglobal -> true | Runknown -> false

let base_alias (idx : Findex.t) (p : Lvalue.t) (q : Lvalue.t) : verdict =
  match (root_of idx p, root_of idx q) with
  | None, _ | _, None -> May_alias
  | Some (np, rp), Some (nq, rq) ->
      (* the same root symbol is the same region whatever its
         classification — an SSA value has one address *)
      if Sym.equal np nq then Must_alias
      else if known rp && known rq then No_alias
      else May_alias

let may_aliased_params (idx : Findex.t) (f : Lmodule.func)
    (params : Lmodule.param list) : (Lmodule.param * Lvalue.t) list =
  if params = [] then []
  else
    let ptrs =
      List.rev
        (Lmodule.fold_insts
           (fun acc (i : Linstr.t) ->
             match i.op with Load (_, p) | Store (_, p) -> p :: acc | _ -> acc)
           [] f)
    in
    List.filter_map
      (fun (p : Lmodule.param) ->
        let pv = Lvalue.Reg (Sym.intern p.Lmodule.pname, p.Lmodule.pty) in
        Option.map
          (fun q -> (p, q))
          (List.find_opt (fun q -> base_alias idx q pv = May_alias) ptrs))
      params

let is_const_zero (f : form) = f.terms = [] && f.konst = 0
let is_const_nonzero (f : form) = f.terms = [] && f.konst <> 0

let alias (idx : Findex.t) (p : Lvalue.t) (q : Lvalue.t) : verdict =
  let same_reg =
    match (p, q) with
    | Lvalue.Reg (a, _), Lvalue.Reg (b, _) -> Sym.equal a b
    | Lvalue.Global (a, _), Lvalue.Global (b, _) -> Sym.equal a b
    | _ -> false
  in
  if same_reg then Must_alias
  else
    match (root_of idx p, root_of idx q) with
    | None, _ | _, None -> May_alias
    | Some (np, rp), Some (nq, rq) ->
        if Sym.equal np nq then
          (* same base address (even when its classification is
             unknown): compare the subscript paths *)
          match (gep_path idx p, gep_path idx q) with
          | Some a, Some b
            when (match (a.path_ty, b.path_ty) with
                 | None, None -> true
                 | Some ta, Some tb -> Ltype.equal ta tb
                 | _ -> false)
                 && List.length a.path_subs = List.length b.path_subs ->
              let deltas = List.map2 form_sub a.path_subs b.path_subs in
              if List.for_all is_const_zero deltas then Must_alias
              else if List.exists is_const_nonzero deltas then No_alias
              else May_alias
          | _ -> May_alias
        else if known rp && known rq && not (Sym.equal np nq) then No_alias
        else May_alias
