(** Promotion of scalar allocas to SSA registers (mem2reg), with pruned
    phi placement (Cytron et al., TOPLAS 1991).

    An alloca is promotable when it holds a scalar type and every use
    is a direct [load]/[store] of the whole slot at its allocated type
    (no GEPs, no escapes via calls or pointer arithmetic, no type
    punning).  The C-round-trip flow relies on this pass: the mini-C
    front-end emits every local through an alloca, just like Clang at
    -O0, and Vitis runs mem2reg first.

    A slot gets a phi only at an iterated dominance frontier block of
    its stores where it is live-in: some path from the block's entry
    loads it before any store.  The renaming walk keeps one current
    value per slot, restored from an undo log on the way back up the
    dominator tree; it marks promoted allocas, stores and loads dead
    and records the load substitution, and the output blocks are the
    index's surviving rows with the path-compressed substitution
    applied, under their phi heads. *)

module Sym = Support.Interner

type slot = { name : Sym.t; ty : Ltype.t }

(** The promotable allocas, in row order, and for each row the slot it
    allocates, loads or stores ([-1] for none).  Phi order and the
    [.phiN] names follow the slot order, so it must not depend on
    symbol ids, which depend on what the process interned before. *)
let promotable (idx : Findex.t) : slot array * int array =
  let n = Findex.n_instrs idx in
  let candidates = Sym.Tbl.create 16 in
  for k = 0 to n - 1 do
    match Findex.instr idx k with
    | { op = Linstr.Alloca (ty, 1); result; _ }
      when (Ltype.is_int ty || Ltype.is_float ty) && not (Sym.is_empty result)
      ->
        Sym.Tbl.replace candidates result ty
    | _ -> ()
  done;
  if Sym.Tbl.length candidates = 0 then ([||], [||])
  else begin
    (* disqualify escaping uses (every operand except a load's pointer
       and a store's pointer) and accesses at another type *)
    let escape = function
      | Lvalue.Reg (nm, _) -> Sym.Tbl.remove candidates nm
      | _ -> ()
    in
    let access ty = function
      | Lvalue.Reg (p, _) -> (
          match Sym.Tbl.find_opt candidates p with
          | Some t when not (Ltype.equal t ty) -> Sym.Tbl.remove candidates p
          | _ -> ())
      | _ -> ()
    in
    for k = 0 to n - 1 do
      let i = Findex.instr idx k in
      match i.op with
      | Linstr.Load (ty, p) -> access ty p
      | Linstr.Store (v, p) ->
          escape v;
          access (Lvalue.type_of v) p
      | _ -> List.iter escape (Linstr.operands i)
    done;
    let slot_of = Sym.Tbl.create 16 and slots = ref [] in
    for k = 0 to n - 1 do
      let r = (Findex.instr idx k).result in
      match Sym.Tbl.find_opt candidates r with
      | Some ty ->
          Sym.Tbl.remove candidates r;
          Sym.Tbl.replace slot_of r (Sym.Tbl.length slot_of);
          slots := { name = r; ty } :: !slots
      | None -> ()
    done;
    let slot_of_ptr = function
      | Lvalue.Reg (p, _) -> Option.value ~default:(-1) (Sym.Tbl.find_opt slot_of p)
      | _ -> -1
    in
    let row_slot =
      Array.init n (fun k ->
          let i = Findex.instr idx k in
          match i.op with
          | Linstr.Alloca _ -> Option.value ~default:(-1) (Sym.Tbl.find_opt slot_of i.result)
          | Linstr.Load (_, p) | Linstr.Store (_, p) -> slot_of_ptr p
          | _ -> -1)
    in
    (Array.of_list (List.rev !slots), row_slot)
  end

(** The names [Lmodule.namegen] would reserve for [idx]'s function,
    without reading them all: a candidate is taken when the function
    defines it or labels a block with it, or when the generator already
    picked it.  A taken candidate is interned already, and a free one
    is picked, so asking interns nothing new. *)
let phi_names idx cfg =
  Support.Namegen.create
    ~taken:(fun name ->
      let s = Sym.intern name in
      Findex.local_of idx s >= 0 || Cfg.index_of cfg s <> None)
    ()

let run_func ~am (f : Lmodule.func) : Lmodule.func =
  let idx = Analysis.findex ~am f in
  let slots, row_slot = promotable idx in
  let n_slots = Array.length slots in
  if n_slots = 0 then f
  else begin
    let cfg = Analysis.cfg ~am f in
    let dom = Analysis.dominance ~am f in
    let df = Dominance.frontiers dom in
    let n = Cfg.n_blocks cfg in
    (* per slot: the blocks that store it, in reverse layout order, and
       the blocks whose first access to it is a load *)
    let defs = Array.make n_slots [] and uses = Array.make n_slots [] in
    let seen = Array.make n_slots (-1) in
    for k = 0 to Findex.n_instrs idx - 1 do
      let s = row_slot.(k) in
      if s >= 0 then begin
        let bi = Findex.block_of_instr idx k in
        match (Findex.instr idx k).op with
        | Linstr.Store _ ->
            (match defs.(s) with
            | b :: _ when b = bi -> ()
            | ds -> defs.(s) <- bi :: ds);
            seen.(s) <- bi
        | Linstr.Load _ ->
            if seen.(s) <> bi then uses.(s) <- bi :: uses.(s);
            seen.(s) <- bi
        | _ -> ()
      end
    done;
    (* phi placement: the iterated dominance frontier of each slot's
       stores, pruned to the blocks where the slot is live-in.  The
       stamp arrays hold the slot a mark was made for. *)
    let phis : (int * Sym.t) list array = Array.make n [] in
    let names = phi_names idx cfg in
    let is_def = Array.make n (-1) and live = Array.make n (-1) in
    let visited = Array.make n (-1) in
    let mark_live s =
      List.iter (fun b -> is_def.(b) <- s) defs.(s);
      let rec up b =
        if live.(b) <> s then begin
          live.(b) <- s;
          List.iter (fun p -> if is_def.(p) <> s then up p) cfg.Cfg.preds.(b)
        end
      in
      List.iter up uses.(s)
    in
    Array.iteri
      (fun s sl ->
        if defs.(s) <> [] then begin
          let base = Sym.name sl.name ^ ".phi" in
          (* liveness is walked only for a slot with a frontier *)
          let live_marked = lazy (mark_live s) in
          let work = Queue.create () in
          List.iter (fun bi -> Queue.add bi work) defs.(s);
          while not (Queue.is_empty work) do
            List.iter
              (fun fb ->
                if visited.(fb) <> s then begin
                  visited.(fb) <- s;
                  Lazy.force live_marked;
                  if live.(fb) = s then begin
                    let reg = Sym.intern (Support.Namegen.fresh names base) in
                    phis.(fb) <- (s, reg) :: phis.(fb);
                    Queue.add fb work
                  end
                end)
              df.(Queue.pop work)
          done
        end)
      slots;
    (* each block's phis in placement order, with their incoming lists *)
    let phis = Array.map (fun ps -> Array.of_list (List.rev ps)) phis in
    let incoming = Array.map (fun ps -> Array.make (Array.length ps) []) phis in
    (* renaming walk over the dominator tree: one current value per
       slot, and an undo log of the values each definition replaced *)
    let dead = Array.make (Findex.n_instrs idx) false in
    let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 32 in
    let resolve = Findex.resolve subst in
    let cur = Array.map (fun sl -> Lvalue.Const (Lvalue.CUndef sl.ty)) slots in
    let undo = ref [] in
    let define s v =
      undo := (s, cur.(s)) :: !undo;
      cur.(s) <- v
    in
    let rec rename bi =
      let saved = !undo in
      Array.iter (fun (s, reg) -> define s (Lvalue.Reg (reg, slots.(s).ty))) phis.(bi);
      for k = Findex.block_start idx bi to Findex.block_stop idx bi - 1 do
        let s = row_slot.(k) in
        if s >= 0 then begin
          let i = Findex.instr idx k in
          (match i.op with
          | Linstr.Store (v, _) ->
              (* the stored value resolves through the substitution as
                 known so far, like the sequential rename it mirrors *)
              define s (resolve (resolve v))
          | Linstr.Load _ -> Sym.Tbl.replace subst i.result cur.(s)
          | _ -> ());
          dead.(k) <- true
        end
      done;
      (* record incoming values for successor phis *)
      let label = Cfg.label cfg bi in
      List.iter
        (fun si ->
          let inc = incoming.(si) in
          Array.iteri (fun j (s, _) -> inc.(j) <- (cur.(s), label) :: inc.(j)) phis.(si))
        cfg.Cfg.succs.(bi);
      List.iter rename dom.Dominance.children.(bi);
      let rec restore log =
        match log with
        | (s, v) :: rest when log != saved ->
            cur.(s) <- v;
            restore rest
        | _ -> undo := saved
      in
      restore !undo
    in
    rename 0;
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
    let blocks =
      List.mapi
        (fun bi (b : Lmodule.block) ->
          if Array.length phis.(bi) = 0 then b
          else
            let phi_insts =
              Array.to_list
                (Array.mapi
                   (fun j (s, result) ->
                     let incoming =
                       List.rev_map
                         (fun (v, l) -> (Findex.resolve resolved v, l))
                         incoming.(bi).(j)
                     in
                     { Linstr.result; ty = slots.(s).ty; op = Linstr.Phi incoming; imeta = [] })
                   phis.(bi))
            in
            { b with insts = phi_insts @ b.insts })
        rows
    in
    { f with blocks }
  end
