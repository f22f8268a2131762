(** Per-function index over the function's own instruction records.
    Rows are the instructions in layout order, so intra-block ordering
    is index comparison and a block is a contiguous span of rows.  The
    def table maps each parameter and instruction result to a dense
    {e local id}: parameter [i] is id [i], the result of row [k] is id
    [n_params + k], so an id is its own def site. *)

module Sym = Support.Interner

type def_site =
  | Param of int  (** defined by the [i]-th function parameter *)
  | Instr of int  (** defined by the instruction at this row *)

type t = {
  func : Lmodule.func;
  rows : Linstr.t array;  (** the function's instructions, layout order *)
  blk : int array;  (** row -> block number *)
  blk_off : int array;
      (** length [n_blocks + 1]; block [bi] is rows
          [blk_off.(bi), blk_off.(bi+1)) *)
  n_params : int;
  locals : int Sym.Tbl.t;  (** defined name -> local id; the last def wins *)
}

let no_instr = Linstr.make Linstr.Unreachable

let build (f : Lmodule.func) : t =
  let n =
    List.fold_left
      (fun acc (b : Lmodule.block) -> acc + List.length b.insts)
      0 f.blocks
  in
  let n_params = List.length f.params in
  let locals = Sym.Tbl.create (max 16 (n_params + n)) in
  List.iteri
    (fun i (p : Lmodule.param) -> Sym.Tbl.replace locals (Sym.intern p.pname) i)
    f.params;
  let rows = Array.make n no_instr and blk = Array.make n 0 in
  let blk_off = Array.make (List.length f.blocks + 1) n in
  let k = ref 0 in
  List.iteri
    (fun bi (b : Lmodule.block) ->
      blk_off.(bi) <- !k;
      List.iter
        (fun (i : Linstr.t) ->
          rows.(!k) <- i;
          blk.(!k) <- bi;
          if not (Sym.is_empty i.result) then
            Sym.Tbl.replace locals i.result (n_params + !k);
          incr k)
        b.insts)
    f.blocks;
  { func = f; rows; blk; blk_off; n_params; locals }

(** Rebase a cached index onto a rewritten function value.  Only valid
    when the rewrite changed no instruction — the analysis-manager
    preserve contract for the findex analysis. *)
let rebase t (f : Lmodule.func) = { t with func = f }

let func t = t.func
let n_instrs t = Array.length t.rows
let n_blocks t = Array.length t.blk_off - 1
let instr t k = t.rows.(k)
let block_of_instr t k = t.blk.(k)
let block_start t bi = t.blk_off.(bi)
let block_stop t bi = t.blk_off.(bi + 1)

(** The function's blocks rebuilt from the rows: row [k] becomes
    [row k], the instructions that replace it ([[]] drops it). *)
let rebuild t (row : int -> Linstr.t list) : Lmodule.block list =
  List.mapi
    (fun bi (b : Lmodule.block) ->
      let insts = ref [] in
      for k = t.blk_off.(bi + 1) - 1 downto t.blk_off.(bi) do
        insts := row k @ !insts
      done;
      { b with insts = !insts })
    t.func.blocks

let n_locals t = t.n_params + Array.length t.rows
let local_of t n = match Sym.Tbl.find_opt t.locals n with Some l -> l | None -> -1

let local_of_res t k =
  if Sym.is_empty t.rows.(k).Linstr.result then -1 else t.n_params + k

(** Unique def site of an SSA name; [None] for names the function does
    not define (undefined references). *)
let def t n =
  match Sym.Tbl.find_opt t.locals n with
  | None -> None
  | Some l when l < t.n_params -> Some (Param l)
  | Some l -> Some (Instr (l - t.n_params))

(** Defining instruction; [None] for parameters and unknown names. *)
let def_instr t n =
  match def t n with Some (Instr k) -> Some (instr t k) | _ -> None

(** Root of a pointer value: walk GEP/bitcast chains back to the
    underlying parameter, alloca or global name. *)
let rec base_pointer (t : t) (v : Lvalue.t) : Sym.t option =
  match v with
  | Lvalue.Reg (n, _) -> (
      match def_instr t n with
      | Some { Linstr.op = Linstr.Gep { base; _ }; _ } -> base_pointer t base
      | Some { Linstr.op = Linstr.Cast (Linstr.Bitcast, src, _); _ } ->
          base_pointer t src
      | Some _ | None -> Some n)
  | Lvalue.Global (n, _) -> Some n
  | _ -> None

(* Path-compress substitution chains: every key maps straight to its
   final value, so a rewrite resolves each operand with one lookup. *)
let compress_chains (subst : Lvalue.t Sym.Tbl.t) : Lvalue.t Sym.Tbl.t =
  let resolved : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 16 in
  let rec resolve_sym n seen =
    match Sym.Tbl.find_opt resolved n with
    | Some v -> Some v
    | None ->
        let v =
          match Sym.Tbl.find_opt subst n with
          | None -> None
          | Some (Lvalue.Reg (n', _) as v')
            when (not (Sym.equal n' n)) && not (List.memq n' seen) -> (
              match resolve_sym n' (n :: seen) with
              | Some v'' -> Some v''
              | None -> Some v')
          | Some v' -> Some v'
        in
        (match v with Some v' -> Sym.Tbl.replace resolved n v' | None -> ());
        v
  in
  Sym.Tbl.iter (fun n _ -> ignore (resolve_sym n [])) subst;
  resolved

let resolve (subst : Lvalue.t Sym.Tbl.t) (v : Lvalue.t) =
  match v with
  | Lvalue.Reg (n, _) -> (
      match Sym.Tbl.find_opt subst n with Some v' -> v' | None -> v)
  | _ -> v

let substitute_instr (subst : Lvalue.t Sym.Tbl.t) (i : Linstr.t) =
  if
    Sym.Tbl.length subst > 0
    && List.exists
         (function Lvalue.Reg (n, _) -> Sym.Tbl.mem subst n | _ -> false)
         (Linstr.operands i)
  then Linstr.map_operands (resolve subst) i
  else i

(** Convenience: substitute over a function without a prebuilt index —
    still one walk (compressed chains, one lookup per operand), but
    skips building use-def tables nothing else will read. *)
let substitute_func (subst : Lvalue.t Sym.Tbl.t) (f : Lmodule.func) :
    Lmodule.func =
  if Sym.Tbl.length subst = 0 then f
  else Lmodule.map_values (resolve (compress_chains subst)) f
