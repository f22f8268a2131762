(** Common subexpression elimination, dominance-based.

    Pure instructions with identical opcodes and operands are unified:
    the walk descends the dominator tree carrying a table of available
    expressions, so a redundant instruction is always dominated by the
    expression it reuses.

    An expression keys as an int array: the id of its opcode with the
    operands blanked out (sub-opcode, [inbounds], GEP source or cast
    target type, aggregate path), then one id per operand.  Registers
    key by symbol — within a function SSA gives every register one
    type — and globals by symbol and type.  Constants key by value with
    floats by bit pattern: polymorphic equality and hashing take [0.0]
    and [-0.0] for one key, and NaN for none.  The walk needs no
    function index: it reads the blocks the dominator tree numbers, and
    the output drops the redundant instructions and resolves their
    users through the substitution. *)

open Lmodule
module Sym = Support.Interner

(* What an id stands for: an opcode with blanked operands, a global
   or non-float constant, or a float constant's bits and type. *)
type atom =
  | Opcode of Linstr.opcode
  | Value of Lvalue.t
  | Float of int64 * Ltype.t

let blank = Lvalue.Const (Lvalue.CUndef Ltype.Void)

let run_func ~am (f : func) : func =
  let dom = Analysis.dominance ~am f in
  let blocks = Array.of_list f.blocks in
  let subst : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 32 in
  let ids : (atom, int) Hashtbl.t = Hashtbl.create 32 in
  let id a =
    match Hashtbl.find_opt ids a with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids a i;
        i
  in
  (* operands key with the current substitution applied, as the
     rewritten function would read them; values in [subst] are kept
     registers, so one probe is full resolution *)
  let operand v =
    match Findex.resolve subst v with
    | Lvalue.Reg (r, _) -> (r :> int) lsl 1
    | Lvalue.Const (Lvalue.CFloat (x, ty)) ->
        (id (Float (Int64.bits_of_float x, ty)) lsl 1) lor 1
    | v -> (id (Value v) lsl 1) lor 1
  in
  let key (i : Linstr.t) =
    Array.of_list
      (id (Opcode (Linstr.map_operands (fun _ -> blank) i).op)
      :: List.map operand (Linstr.operands i))
  in
  (* One shared table scoped by an undo list: entering a block pushes
     its insertions, leaving pops them ([Hashtbl.add] stacks a
     shadowing binding, [remove] restores the shadowed one).  An
     instruction probes before inserting, so a block never inserts the
     same key twice. *)
  let avail : (int array, Lvalue.t) Hashtbl.t = Hashtbl.create 32 in
  let rec walk bi =
    let added = ref [] in
    List.iter
      (fun (i : Linstr.t) ->
        match i.op with
        | Linstr.Phi _ -> () (* phi equality depends on control flow *)
        | _ when Linstr.is_pure i && Linstr.has_result i -> (
            let key = key i in
            match Hashtbl.find_opt avail key with
            | Some v -> Sym.Tbl.replace subst i.result v
            | None ->
                Hashtbl.add avail key (Lvalue.Reg (i.result, i.ty));
                added := key :: !added)
        | _ -> ())
      blocks.(bi).insts;
    List.iter walk dom.Dominance.children.(bi);
    List.iter (fun key -> Hashtbl.remove avail key) !added
  in
  if Array.length blocks > 0 then walk 0;
  if Sym.Tbl.length subst = 0 then f
  else
    Lmodule.rewrite_insts
      (fun i ->
        if Sym.Tbl.mem subst i.result then []
        else [ Findex.substitute_instr subst i ])
      f
