(** LLVM IR verifier: module/function well-formedness and SSA dominance.

    Checks:
    - block structure: non-empty blocks, exactly one terminator, at the
      end; entry block has no phis; unique labels;
    - SSA: unique definitions; every register use is dominated by its
      definition (phi uses checked against the incoming edge);
    - types: operand types are consistent where locally checkable
      (binop operands match, store value matches pointee for typed
      pointers, GEP base is a pointer, an insertvalue's value matches
      the element at its path, ...);
    - calls: callee is a defined function or declaration with matching
      arity. *)

open Linstr
open Lmodule
module Sym = Support.Interner

let fail = Support.Err.fail ~pass:"llvmir.verifier"

let check_block_structure (f : func) =
  let seen = Sym.Tbl.create 16 in
  List.iter
    (fun (b : block) ->
      if Sym.Tbl.mem seen b.label then
        fail "@%s: duplicate block label %%%s" f.fname (Sym.name b.label);
      Sym.Tbl.replace seen b.label ();
      match List.rev b.insts with
      | [] -> fail "@%s: empty block %%%s" f.fname (Sym.name b.label)
      | term :: rest ->
          if not (is_terminator term) then
            fail "@%s: block %%%s does not end with a terminator" f.fname
              (Sym.name b.label);
          List.iter
            (fun i ->
              if is_terminator i then
                fail "@%s: terminator in the middle of block %%%s" f.fname
                  (Sym.name b.label))
            rest)
    f.blocks;
  (match f.blocks with
  | entry :: _ ->
      List.iter
        (fun (i : Linstr.t) ->
          match i.op with
          | Phi _ -> fail "@%s: phi in entry block" f.fname
          | _ -> ())
        entry.insts
  | [] -> fail "@%s: function has no blocks" f.fname)

let check_ssa ~am (f : func) =
  let idx = Analysis.findex ~am f in
  let cfg = Analysis.cfg ~am f in
  let dom = Analysis.dominance ~am f in
  (* unique definitions: the index keeps the last def per name, so any
     def site that is not its own recorded def is a duplicate *)
  List.iteri
    (fun pi (p : param) ->
      match Findex.def idx (Sym.intern p.pname) with
      | Some (Findex.Param pj) when pj = pi -> ()
      | _ ->
          fail "@%s: register %%%s defined more than once" f.fname p.pname)
    f.params;
  for k = 0 to Findex.n_instrs idx - 1 do
    let i = Findex.instr idx k in
    if not (Sym.is_empty i.result) then
      match Findex.def idx i.result with
      | Some (Findex.Instr k') when k' = k -> ()
      | _ ->
          fail "@%s: register %%%s defined more than once" f.fname
            (Sym.name i.result)
  done;
  (* every use dominated by its def; the index rows are in layout order, so
     intra-block ordering is plain index comparison *)
  let check_use ~use_k name =
    match Findex.def idx name with
    | None ->
        fail "@%s: use of undefined register %%%s" f.fname (Sym.name name)
    | Some (Findex.Param _) -> ()
    | Some (Findex.Instr def_k) ->
        let def_bi = Findex.block_of_instr idx def_k in
        let use_bi = Findex.block_of_instr idx use_k in
        let ok =
          if def_bi = use_bi then def_k < use_k
          else Dominance.dominates dom def_bi use_bi
        in
        if not ok then
          fail "@%s: use of %%%s (block %%%s) not dominated by its definition"
            f.fname (Sym.name name)
            (Sym.name (Cfg.label cfg use_bi))
  in
  for k = 0 to Findex.n_instrs idx - 1 do
    let i = Findex.instr idx k in
    let bi = Findex.block_of_instr idx k in
    match i.op with
    | Phi incoming ->
        (* each incoming value must dominate the end of its pred *)
        List.iter
          (fun (v, pred_label) ->
            match Cfg.index_of cfg pred_label with
            | None ->
                fail "@%s: phi references unknown block %%%s" f.fname
                  (Sym.name pred_label)
            | Some pred_bi -> (
                if not (List.mem pred_bi cfg.Cfg.preds.(bi)) then
                  fail "@%s: phi incoming block %%%s is not a predecessor"
                    f.fname (Sym.name pred_label);
                match v with
                | Lvalue.Reg (n, _) -> (
                    match Findex.def idx n with
                    | None ->
                        fail "@%s: phi uses undefined register %%%s" f.fname
                          (Sym.name n)
                    | Some (Findex.Param _) -> ()
                    | Some (Findex.Instr def_k) ->
                        if
                          not
                            (Dominance.dominates dom
                               (Findex.block_of_instr idx def_k)
                               pred_bi)
                        then
                          fail
                            "@%s: phi incoming %%%s does not dominate edge \
                             from %%%s"
                            f.fname (Sym.name n) (Sym.name pred_label))
                | _ -> ()))
          incoming
    | _ ->
        List.iter
          (function
            | Lvalue.Reg (n, _) -> check_use ~use_k:k n
            | _ -> ())
          (operands i)
  done

let check_types (f : func) =
  iter_insts
    (fun (i : Linstr.t) ->
      let t = Lvalue.type_of in
      match i.op with
      | IBin (_, a, b) ->
          if not (Ltype.equal (t a) (t b)) then
            fail "@%s: %%%s: integer binop operand types differ" f.fname
              (result_name i);
          if not (Ltype.is_int (t a)) then
            fail "@%s: %%%s: integer binop on non-integer" f.fname
              (result_name i)
      | FBin (_, a, b) ->
          if not (Ltype.equal (t a) (t b)) then
            fail "@%s: %%%s: float binop operand types differ" f.fname
              (result_name i);
          if not (Ltype.is_float (t a)) then
            fail "@%s: %%%s: float binop on non-float" f.fname (result_name i)
      | Icmp (_, a, b) ->
          if not (Ltype.equal (t a) (t b)) then
            fail "@%s: icmp operand types differ" f.fname
      | Fcmp (_, a, b) ->
          if not (Ltype.equal (t a) (t b) && Ltype.is_float (t a)) then
            fail "@%s: fcmp operand types invalid" f.fname
      | Load (ty, p) -> (
          match t p with
          | Ltype.Ptr (Some pt) when not (Ltype.equal pt ty) ->
              fail "@%s: load type %s from pointer to %s" f.fname
                (Ltype.to_string ty) (Ltype.to_string pt)
          | Ltype.Ptr _ -> ()
          | other ->
              fail "@%s: load from non-pointer %s" f.fname
                (Ltype.to_string other))
      | Store (v, p) -> (
          match t p with
          | Ltype.Ptr (Some pt) when not (Ltype.equal pt (t v)) ->
              fail "@%s: store of %s into pointer to %s" f.fname
                (Ltype.to_string (t v)) (Ltype.to_string pt)
          | Ltype.Ptr _ -> ()
          | other ->
              fail "@%s: store to non-pointer %s" f.fname
                (Ltype.to_string other))
      | Gep { base; idxs; _ } ->
          if not (Ltype.is_pointer (t base)) then
            fail "@%s: getelementptr base is not a pointer" f.fname;
          List.iter
            (fun v ->
              if not (Ltype.is_int (t v)) then
                fail "@%s: getelementptr index is not an integer" f.fname)
            idxs
      | InsertValue (agg, v, path) -> (
          match List.fold_left Ltype.agg_step (t agg) path with
          (* an opaque pointer holds any pointer, as a store through it does *)
          | Ltype.Ptr None when Ltype.is_pointer (t v) -> ()
          | ety ->
              if not (Ltype.equal ety (t v)) then
                fail "@%s: %%%s: insertvalue of %s into an element of type %s"
                  f.fname (result_name i) (Ltype.to_string (t v))
                  (Ltype.to_string ety)
          | exception Invalid_argument _ ->
              fail "@%s: %%%s: insertvalue path does not index %s" f.fname
                (result_name i) (Ltype.to_string (t agg)))
      | Select (c, a, b) ->
          if not (Ltype.equal (t c) Ltype.I1) then
            fail "@%s: select condition is not i1" f.fname;
          if not (Ltype.equal (t a) (t b)) then
            fail "@%s: select branch types differ" f.fname
      | Phi incoming ->
          let tys = List.map (fun (v, _) -> t v) incoming in
          (match tys with
          | [] -> fail "@%s: empty phi" f.fname
          | ty0 :: rest ->
              if not (List.for_all (Ltype.equal ty0) rest) then
                fail "@%s: phi incoming types differ" f.fname)
      | CondBr (c, _, _) ->
          if not (Ltype.equal (t c) Ltype.I1) then
            fail "@%s: conditional branch on non-i1" f.fname
      | Ret (Some v) ->
          if not (Ltype.equal (t v) f.ret_ty) then
            fail "@%s: return type mismatch" f.fname
      | Ret None ->
          if not (Ltype.equal f.ret_ty Ltype.Void) then
            fail "@%s: void return from non-void function" f.fname
      | _ -> ())
    f

let check_calls (m : t) (f : func) =
  iter_insts
    (fun (i : Linstr.t) ->
      match i.op with
      | Call { callee; args; ret } -> (
          match find_func m callee with
          | Some g ->
              if List.length args <> List.length g.params then
                fail "@%s: call @%s with wrong arity" f.fname callee;
              if not (Ltype.equal ret g.ret_ty) then
                fail "@%s: call @%s return type mismatch" f.fname callee
          | None -> (
              match find_decl m callee with
              | Some d ->
                  if List.length args <> List.length d.dargs then
                    fail "@%s: call @%s with wrong arity" f.fname callee
              | None ->
                  fail "@%s: call to undeclared function @%s" f.fname callee))
      | _ -> ())
    f

(* Verification is incremental: a function value the verifier already
   accepted under this manager is skipped (every check is a pure
   property of the value plus the module's callable signatures, and
   {!Analysis.verified} is cleared the moment any query or
   {!Analysis.keep} sees a new value under that name).  Callers that
   reuse one manager across several passes of the same module — the
   pass pipeline, the adaptor — therefore only pay for functions a
   pass actually rewrote. *)
let verify_func ~am (m : t) (f : func) =
  if not (Analysis.verified am f) then begin
    check_block_structure f;
    check_ssa ~am f;
    check_types f;
    check_calls m f;
    Analysis.mark_verified am f
  end

(** Verify every function of [m] under [?am] (a fresh manager without
    it). *)
let verify_module ?(am = Analysis.create ()) (m : t) =
  (* Call-site checks read other functions' signatures, so a skip is
     only sound while the signature environment is stable; when it
     moved (e.g. the adaptor rewrote parameter lists), call sites of
     untouched functions are re-checked — exactly the staleness a
     skipped full check could miss. *)
  let sigs_changed = Analysis.note_signatures am m in
  List.iter
    (fun f ->
      if not (Analysis.verified am f) then verify_func ~am m f
      else if sigs_changed then check_calls m f)
    m.funcs
