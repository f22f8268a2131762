(** Promotion of scalar allocas to SSA registers (mem2reg), using the
    standard dominance-frontier phi placement.

    An alloca is promotable when it holds a scalar type and every use
    is a direct [load]/[store] of the whole slot (no GEPs, no escapes
    via calls or pointer arithmetic).  The C-round-trip flow relies on
    this pass: the mini-C front-end emits every local through an
    alloca, just like Clang at -O0, and Vitis runs mem2reg first.

    The candidate scan and the renaming walk run on the packed
    {!Iarena}: promotability is a slot-role check per operand, the
    rename walk kills allocas/stores/loads in place and records the
    load substitution, and one final pass writes the path-compressed
    substitution into the operand slots of the recorded users before
    materialising blocks with their phi heads. *)

open Lmodule
module Sym = Support.Interner

type alloca_info = { name : Sym.t; ty : Ltype.t }

(** Find promotable allocas, in arena row order: phi order and the
    [.phiN] names follow this list, so it must not depend on symbol
    ids, which depend on what the process interned before. *)
let promotable (a : Iarena.t) : alloca_info list =
  let candidates = Sym.Tbl.create 16 in
  let n = Iarena.n_instrs a in
  for k = 0 to n - 1 do
    if Iarena.tag a k = Iarena.tag_alloca && Iarena.aux1 a k = 1 then begin
      let ty = Iarena.ty_of_ix a (Iarena.aux0 a k) in
      if
        (Ltype.is_int ty || Ltype.is_float ty)
        && not (Sym.is_empty (Iarena.result a k))
      then Sym.Tbl.replace candidates (Iarena.result a k) ty
    end
  done;
  (* disqualify escaping uses: every operand slot except a load's
     pointer and a store's pointer *)
  for k = 0 to n - 1 do
    let tg = Iarena.tag a k in
    if tg <> Iarena.tag_load then begin
      let o = Iarena.op_off a k in
      (* store: only the value slot [o] escapes; the pointer slot is a
         direct use *)
      let stop = if tg = Iarena.tag_store then o else o + Iarena.op_len a k - 1 in
      for s = o to stop do
        match Iarena.opnd a s with
        | Lvalue.Reg (nm, _) -> Sym.Tbl.remove candidates nm
        | _ -> ()
      done
    end
  done;
  let found = ref [] in
  for k = n - 1 downto 0 do
    if Iarena.tag a k = Iarena.tag_alloca then
      match Sym.Tbl.find_opt candidates (Iarena.result a k) with
      | Some ty -> found := { name = Iarena.result a k; ty } :: !found
      | None -> ()
  done;
  !found

let run_func ~am (f : func) : func =
  let idx = Analysis.findex ~am f in
  let a = Findex.arena idx in
  let allocas = promotable a in
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
    for k = 0 to Iarena.n_instrs a - 1 do
      if Iarena.tag a k = Iarena.tag_store then
        match Iarena.opnd a (Iarena.op_off a k + 1) with
        | Lvalue.Reg (p, _) when Sym.Tbl.mem alloca_tbl p ->
            let bi = Iarena.block_of a k in
            let cur =
              Option.value ~default:[] (Sym.Tbl.find_opt def_blocks p)
            in
            if not (List.mem bi cur) then
              Sym.Tbl.replace def_blocks p (bi :: cur)
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
    (* renaming walk over the dominator tree: kill promoted
       allocas/stores/loads in place, record the load substitution *)
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
    let resolve v =
      match v with
      | Lvalue.Reg (r, _) -> (
          match Sym.Tbl.find_opt subst r with Some v' -> v' | None -> v)
      | _ -> v
    in
    let rec rename bi (cur : (Sym.t, Lvalue.t) Hashtbl.t) =
      let cur = Hashtbl.copy cur in
      (* bind phi registers first *)
      List.iter
        (fun (aname, reg) ->
          let ty = Sym.Tbl.find alloca_tbl aname in
          Hashtbl.replace cur aname (Lvalue.Reg (reg, ty)))
        phis.(bi);
      for k = Iarena.block_start a bi to Iarena.block_stop a bi - 1 do
        let tg = Iarena.tag a k in
        let o = Iarena.op_off a k in
        if tg = Iarena.tag_alloca then begin
          if Sym.Tbl.mem alloca_tbl (Iarena.result a k) then Iarena.kill a k
        end
        else if tg = Iarena.tag_store then begin
          match Iarena.opnd a (o + 1) with
          | Lvalue.Reg (p, _) when Sym.Tbl.mem alloca_tbl p ->
              (* the stored value resolves through the substitution as
                 known so far, like the sequential rename it mirrors *)
              Hashtbl.replace cur p (resolve (resolve (Iarena.opnd a o)));
              Iarena.kill a k
          | _ -> ()
        end
        else if tg = Iarena.tag_load then begin
          match Iarena.opnd a o with
          | Lvalue.Reg (p, _) when Sym.Tbl.mem alloca_tbl p ->
              let v =
                match Hashtbl.find_opt cur p with
                | Some v -> v
                | None -> undef_of (Iarena.ty_of_ix a (Iarena.aux0 a k))
              in
              Sym.Tbl.replace subst (Iarena.result a k) v;
              Iarena.kill a k
          | _ -> ()
        end
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
              r := (v, Iarena.block_label a bi) :: !r)
            phis.(si))
        cfg.Cfg.succs.(bi);
      (* recurse into dominator children *)
      List.iter (fun child -> rename child cur) dom.Dominance.children.(bi)
    in
    rename 0 (Hashtbl.create 8);
    (* substitutions recorded during renaming must also rewrite uses
       that appear before their defs in layout order (loop-carried
       phis): write the path-compressed table into the operand slots
       of every recorded user, then materialise *)
    let resolved = Findex.rewrite_users idx subst in
    let cresolve v =
      match v with
      | Lvalue.Reg (r, _) -> (
          match Sym.Tbl.find_opt resolved r with Some v' -> v' | None -> v)
      | _ -> v
    in
    (* materialize phi instructions at block heads *)
    let final_blocks =
      List.init n (fun bi ->
          let phi_insts =
            List.rev_map
              (fun (aname, reg) ->
                let ty = Sym.Tbl.find alloca_tbl aname in
                let incoming =
                  List.map
                    (fun (v, l) -> (cresolve v, l))
                    (List.rev !(Hashtbl.find phi_incoming (bi, reg)))
                in
                { Linstr.result = reg; ty; op = Linstr.Phi incoming; imeta = [] })
              phis.(bi)
          in
          let insts = ref [] in
          for k = Iarena.block_stop a bi - 1 downto Iarena.block_start a bi do
            if not (Iarena.is_dead a k) then insts := Iarena.instr a k :: !insts
          done;
          { label = Iarena.block_label a bi; insts = phi_insts @ !insts })
    in
    { f with blocks = final_blocks }
  end
