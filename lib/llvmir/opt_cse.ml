(** Common subexpression elimination, dominance-based.

    Pure instructions with identical opcodes and operands are unified:
    the walk descends the dominator tree carrying a table of available
    expressions, so a redundant instruction is always dominated by the
    expression it reuses.

    Expressions key as packed int arrays over the {!Iarena} encoding —
    the opcode word, the per-opcode scalar payload (interned source
    type, aggregate path) and one identity key per operand
    ({!Iarena.opnd_key}: symbol for registers, interned constant-pool
    index for constants) — where the old walk built and hashed a
    string per candidate.  Within a function SSA gives every register
    one type, so the symbol alone carries what the string key spelt
    out as [ty:name].  Redundant rows are killed in place; surviving
    users get their operand slots rewritten through the path-compressed
    substitution, and the pass seeds the analysis cache with an index
    of the compacted arena it wrote. *)

open Lmodule
module Sym = Support.Interner

let run_func ~am (f : func) : func =
  let dom = Analysis.dominance ~am f in
  let idx = Analysis.findex ~am f in
  let a = Findex.arena idx in
  let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 32 in
  let changed = ref false in
  (* [key_of k] for a keyable row: opcode word, scalar payload, then
     one packed key per operand with the current substitution already
     applied — matching the old walk, which resolved operands before
     keying.  Values in [subst] are kept (never-substituted) registers
     or constants, so one probe is full resolution here. *)
  let key_of k =
    let tg = Iarena.tag a k in
    let o = Iarena.op_off a k and l = Iarena.op_len a k in
    let extra =
      if tg = Iarena.tag_gep || tg = Iarena.tag_cast then 1
      else if tg = Iarena.tag_extractvalue || tg = Iarena.tag_insertvalue
      then Iarena.aux1 a k
      else 0
    in
    let key = Array.make (1 + extra + l) (Iarena.opword a k) in
    if extra = 1 then key.(1) <- Iarena.aux0 a k
    else
      for i = 0 to extra - 1 do
        key.(1 + i) <- Iarena.xt a (Iarena.aux0 a k + i)
      done;
    for i = 0 to l - 1 do
      key.(1 + extra + i) <-
        (match Iarena.opnd a (o + i) with
        | Lvalue.Reg (r, _) as v -> (
            match Sym.Tbl.find_opt subst r with
            | Some v' -> Iarena.key_of_value a v'
            | None -> Iarena.key_of_value a v)
        | _ -> Iarena.opnd_key a (o + i))
    done;
    key
  in
  (* One shared table scoped by an undo list: entering a block pushes
     its insertions, leaving pops them ([Hashtbl.add] stacks a
     shadowing binding, [remove] restores the shadowed one).  An
     instruction probes before inserting, so a block never inserts the
     same key twice — semantics match the old copy-per-block walk at
     O(insertions) instead of O(blocks x table size). *)
  let avail : (int array, Lvalue.t) Hashtbl.t = Hashtbl.create 32 in
  let rec walk bi =
    let added = ref [] in
    for k = Iarena.block_start a bi to Iarena.block_stop a bi - 1 do
      let tg = Iarena.tag a k in
      if
        Iarena.pure_tag tg
        && tg <> Iarena.tag_phi (* phi equality depends on control flow *)
        && not (Sym.is_empty (Iarena.result a k))
      then begin
        let key = key_of k in
        match Hashtbl.find_opt avail key with
        | Some v ->
            changed := true;
            Iarena.kill a k;
            Sym.Tbl.replace subst (Iarena.result a k) v
        | None ->
            Hashtbl.add avail key
              (Lvalue.Reg (Iarena.result a k, Iarena.result_ty a k));
            added := key :: !added
      end
    done;
    List.iter walk dom.Dominance.children.(bi);
    List.iter (fun key -> Hashtbl.remove avail key) !added
  in
  if Iarena.n_blocks a > 0 then walk 0;
  if not !changed then f
  else begin
    (* the arena is the output: rewrite surviving users in place, then
       materialise it *)
    ignore (Findex.rewrite_users idx subst);
    Analysis.materialize ~am f a
  end
