(** Promotion of scalar allocas to SSA registers (mem2reg), using the
    standard dominance-frontier phi placement.

    An alloca is promotable when it holds a scalar type and every use
    is a direct [load]/[store] of the whole slot (no GEPs, no escapes
    via calls or pointer arithmetic).  The C-round-trip flow relies on
    this pass: the mini-C front-end emits every local through an
    alloca, just like Clang at -O0, and Vitis runs mem2reg first.

    The candidate scan and the renaming walk read the function index's
    rows: the rename walk marks promoted allocas, stores and loads dead
    and records the load substitution, and the output blocks are the
    surviving rows with the path-compressed substitution applied,
    under their phi heads. *)

open Lmodule
module Sym = Support.Interner

type alloca_info = { name : Sym.t; ty : Ltype.t }

(** Find promotable allocas, in row order: phi order and the [.phiN]
    names follow this list, so it must not depend on symbol ids, which
    depend on what the process interned before. *)
let promotable (idx : Findex.t) : alloca_info list =
  let candidates = Sym.Tbl.create 16 in
  let n = Findex.n_instrs idx in
  for k = 0 to n - 1 do
    match Findex.instr idx k with
    | { op = Linstr.Alloca (ty, 1); result; _ }
      when (Ltype.is_int ty || Ltype.is_float ty) && not (Sym.is_empty result)
      ->
        Sym.Tbl.replace candidates result ty
    | _ -> ()
  done;
  (* disqualify escaping uses: every operand except a load's pointer
     and a store's pointer *)
  for k = 0 to n - 1 do
    let i = Findex.instr idx k in
    List.iter
      (function Lvalue.Reg (nm, _) -> Sym.Tbl.remove candidates nm | _ -> ())
      (match i.op with
      | Linstr.Load _ -> []
      | Linstr.Store (v, _) -> [ v ]
      | _ -> Linstr.operands i)
  done;
  let found = ref [] in
  for k = n - 1 downto 0 do
    let r = (Findex.instr idx k).result in
    match Sym.Tbl.find_opt candidates r with
    | Some ty -> found := { name = r; ty } :: !found
    | None -> ()
  done;
  !found

let run_func ~am (f : func) : func =
  let idx = Analysis.findex ~am f in
  let allocas = promotable idx in
  if allocas = [] then f
  else begin
    let cfg = Analysis.cfg ~am f in
    let dom = Analysis.dominance ~am f in
    let df = Dominance.frontiers dom in
    let names = namegen f in
    let n = Cfg.n_blocks cfg in
    let alloca_tbl = Sym.Tbl.create 8 in
    List.iter (fun al -> Sym.Tbl.replace alloca_tbl al.name al.ty) allocas;
    (* blocks containing a store to each alloca *)
    let def_blocks = Sym.Tbl.create 8 in
    for k = 0 to Findex.n_instrs idx - 1 do
      match (Findex.instr idx k).op with
      | Linstr.Store (_, Lvalue.Reg (p, _)) when Sym.Tbl.mem alloca_tbl p ->
          let bi = Findex.block_of_instr idx k in
          let cur = Option.value ~default:[] (Sym.Tbl.find_opt def_blocks p) in
          if not (List.mem bi cur) then Sym.Tbl.replace def_blocks p (bi :: cur)
      | _ -> ()
    done;
    (* phi placement: iterated dominance frontier *)
    (* phis.(bi) : (alloca_name, phi_reg) list *)
    let phis : (Sym.t * Sym.t) list array = Array.make n [] in
    List.iter
      (fun al ->
        let work = Queue.create () in
        List.iter
          (fun bi -> Queue.add bi work)
          (Option.value ~default:[] (Sym.Tbl.find_opt def_blocks al.name));
        let placed = Array.make n false in
        while not (Queue.is_empty work) do
          let bi = Queue.pop work in
          List.iter
            (fun fb ->
              if not placed.(fb) then begin
                placed.(fb) <- true;
                let reg =
                  Sym.intern
                    (Support.Namegen.fresh names (Sym.name al.name ^ ".phi"))
                in
                phis.(fb) <- (al.name, reg) :: phis.(fb);
                Queue.add fb work
              end)
            df.(bi)
        done)
      allocas;
    (* renaming walk over the dominator tree: mark promoted
       allocas/stores/loads dead, record the load substitution *)
    let dead = Array.make (Findex.n_instrs idx) false in
    let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 32 in
    (* incoming values for placed phis: (block, phi_reg) -> (value, pred) list *)
    let phi_incoming : (int * Sym.t, (Lvalue.t * Sym.t) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    Array.iteri
      (fun bi ps ->
        List.iter
          (fun (_, reg) -> Hashtbl.replace phi_incoming (bi, reg) (ref []))
          ps)
      phis;
    let undef_of ty = Lvalue.Const (Lvalue.CUndef ty) in
    let resolve = Findex.resolve subst in
    let rec rename bi (cur : (Sym.t, Lvalue.t) Hashtbl.t) =
      let cur = Hashtbl.copy cur in
      (* bind phi registers first *)
      List.iter
        (fun (aname, reg) ->
          let ty = Sym.Tbl.find alloca_tbl aname in
          Hashtbl.replace cur aname (Lvalue.Reg (reg, ty)))
        phis.(bi);
      for k = Findex.block_start idx bi to Findex.block_stop idx bi - 1 do
        let i = Findex.instr idx k in
        match i.op with
        | Linstr.Alloca _ when Sym.Tbl.mem alloca_tbl i.result -> dead.(k) <- true
        | Linstr.Store (v, Lvalue.Reg (p, _)) when Sym.Tbl.mem alloca_tbl p ->
            (* the stored value resolves through the substitution as
               known so far, like the sequential rename it mirrors *)
            Hashtbl.replace cur p (resolve (resolve v));
            dead.(k) <- true
        | Linstr.Load (ty, Lvalue.Reg (p, _)) when Sym.Tbl.mem alloca_tbl p ->
            let v =
              match Hashtbl.find_opt cur p with
              | Some v -> v
              | None -> undef_of ty
            in
            Sym.Tbl.replace subst i.result v;
            dead.(k) <- true
        | _ -> ()
      done;
      (* record incoming values for successor phis *)
      List.iter
        (fun si ->
          List.iter
            (fun (aname, reg) ->
              let ty = Sym.Tbl.find alloca_tbl aname in
              let v =
                match Hashtbl.find_opt cur aname with
                | Some v -> v
                | None -> undef_of ty
              in
              let r = Hashtbl.find phi_incoming (si, reg) in
              r := (v, Cfg.label cfg bi) :: !r)
            phis.(si))
        cfg.Cfg.succs.(bi);
      (* recurse into dominator children *)
      List.iter (fun child -> rename child cur) dom.Dominance.children.(bi)
    in
    rename 0 (Hashtbl.create 8);
    (* substitutions recorded during renaming must also rewrite uses
       that appear before their defs in layout order (loop-carried
       phis), so the surviving rows resolve through the path-compressed
       table *)
    let resolved = Findex.compress_chains subst in
    let rows =
      Findex.rebuild idx (fun k ->
          if dead.(k) then []
          else [ Findex.substitute_instr resolved (Findex.instr idx k) ])
    in
    (* phi instructions at block heads *)
    let final_blocks =
      List.mapi
        (fun bi (b : block) ->
          let phi_insts =
            List.rev_map
              (fun (aname, reg) ->
                let ty = Sym.Tbl.find alloca_tbl aname in
                let incoming =
                  List.map
                    (fun (v, l) -> (Findex.resolve resolved v, l))
                    (List.rev !(Hashtbl.find phi_incoming (bi, reg)))
                in
                { Linstr.result = reg; ty; op = Linstr.Phi incoming; imeta = [] })
              phis.(bi)
          in
          { b with insts = phi_insts @ b.insts })
        rows
    in
    { f with blocks = final_blocks }
  end
