(** Per-function index over the function's own instruction records.
    Rows are the instructions in layout order, so intra-block ordering
    is index comparison and a block is a contiguous span of rows.  SSA
    names map to dense {e local ids}; defs, use counts and user edges
    are flat arrays over those ids, so DCE's cascade runs as int reads
    with one probe per operand. *)

module Sym = Support.Interner

type def_site =
  | Param of int  (** defined by the [i]-th function parameter *)
  | Instr of int  (** defined by the instruction at this row *)

(* The per-local tables grow while {!build} runs and are never written
   after it returns. *)
type t = {
  func : Lmodule.func;
  rows : Linstr.t array;  (** the function's instructions, layout order *)
  blk : int array;  (** row -> block number *)
  blk_off : int array;
      (** length [n_blocks + 1]; block [bi] is rows
          [blk_off.(bi), blk_off.(bi+1)) *)
  locals : int Sym.Tbl.t;  (** SSA name -> dense local id *)
  mutable n_locals : int;
  (* per-local tables, grown in lockstep with [locals] *)
  mutable def_kind : Bytes.t;  (** '\000' none, '\001' param, '\002' instr *)
  mutable def_ix : int array;
  mutable cnt : int array;  (** operand occurrences *)
  mutable user_head : int array;  (** head of the user edge list, -1 *)
  (* user edges as linked lists in push order (layout order): edge [e]
     is row [edge_k.(e)], next edge [edge_next.(e)] *)
  mutable edge_k : int array;
  mutable edge_next : int array;
  mutable n_edges : int;
  res_local : int array;  (** row -> local id of result, -1 *)
}

let grow_int a n = Array.append a (Array.make (max n (Array.length a)) 0)

let local t n =
  match Sym.Tbl.find_opt t.locals n with
  | Some l -> l
  | None ->
      let l = t.n_locals in
      t.n_locals <- l + 1;
      if l = Bytes.length t.def_kind then begin
        let b = Bytes.make (2 * l) '\000' in
        Bytes.blit t.def_kind 0 b 0 l;
        t.def_kind <- b;
        t.def_ix <- grow_int t.def_ix l;
        t.cnt <- grow_int t.cnt l;
        let h = Array.make (2 * l) (-1) in
        Array.blit t.user_head 0 h 0 l;
        t.user_head <- h
      end;
      t.def_ix.(l) <- 0;
      t.cnt.(l) <- 0;
      t.user_head.(l) <- -1;
      Sym.Tbl.replace t.locals n l;
      l

let push_edge t l k =
  let e = t.n_edges in
  if e = Array.length t.edge_k then begin
    t.edge_k <- grow_int t.edge_k e;
    t.edge_next <- grow_int t.edge_next e
  end;
  t.edge_k.(e) <- k;
  t.edge_next.(e) <- t.user_head.(l);
  t.user_head.(l) <- e;
  t.n_edges <- e + 1

let no_instr = Linstr.make Linstr.Unreachable

let build (f : Lmodule.func) : t =
  let n =
    List.fold_left
      (fun acc (b : Lmodule.block) -> acc + List.length b.insts)
      0 f.blocks
  in
  let rows = Array.make n no_instr and blk = Array.make n 0 in
  let blk_off = Array.make (List.length f.blocks + 1) n in
  let k = ref 0 in
  List.iteri
    (fun bi (b : Lmodule.block) ->
      blk_off.(bi) <- !k;
      List.iter
        (fun i ->
          rows.(!k) <- i;
          blk.(!k) <- bi;
          incr k)
        b.insts)
    f.blocks;
  let cap l = max 16 l in
  let n_defs = cap (n + List.length f.params) in
  let t =
    {
      func = f;
      rows;
      blk;
      blk_off;
      locals = Sym.Tbl.create (cap (2 * n));
      n_locals = 0;
      def_kind = Bytes.make n_defs '\000';
      def_ix = Array.make n_defs 0;
      cnt = Array.make n_defs 0;
      user_head = Array.make n_defs (-1);
      edge_k = Array.make (cap (2 * n)) 0;
      edge_next = Array.make (cap (2 * n)) 0;
      n_edges = 0;
      res_local = Array.make n (-1);
    }
  in
  List.iteri
    (fun i (p : Lmodule.param) ->
      let l = local t (Sym.intern p.pname) in
      Bytes.set t.def_kind l '\001';
      t.def_ix.(l) <- i)
    f.params;
  for k = 0 to n - 1 do
    let i = rows.(k) in
    if not (Sym.is_empty i.result) then begin
      let l = local t i.result in
      Bytes.set t.def_kind l '\002';
      t.def_ix.(l) <- k;
      t.res_local.(k) <- l
    end;
    List.iter
      (function
        | Lvalue.Reg (nm, _) ->
            let l = local t nm in
            t.cnt.(l) <- t.cnt.(l) + 1;
            (* an instruction using a name twice still lists once —
               callers only need the user set *)
            let h = t.user_head.(l) in
            if h = -1 || t.edge_k.(h) <> k then push_edge t l k
        | _ -> ())
      (Linstr.operands i)
  done;
  t

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

let n_locals t = t.n_locals
let local_of t n = match Sym.Tbl.find_opt t.locals n with Some l -> l | None -> -1
let local_of_res t k = t.res_local.(k)
let use_counts t = Array.sub t.cnt 0 t.n_locals

let def_of_local t l =
  if l < 0 then None
  else
    match Bytes.get t.def_kind l with
    | '\001' -> Some (Param t.def_ix.(l))
    | '\002' -> Some (Instr t.def_ix.(l))
    | _ -> None

(** Unique def site of an SSA name; [None] for names the function does
    not define (undefined references). *)
let def t n = def_of_local t (local_of t n)

(** Defining instruction; [None] for parameters and unknown names. *)
let def_instr t n =
  match def t n with Some (Instr k) -> Some (instr t k) | _ -> None

(** Rows of the instructions using [n], in layout order. *)
let users t n =
  let acc = ref [] in
  let l = local_of t n in
  if l >= 0 then begin
    let e = ref t.user_head.(l) in
    while !e >= 0 do
      acc := t.edge_k.(!e) :: !acc;
      e := t.edge_next.(!e)
    done
  end;
  !acc

let use_count t n =
  let l = local_of t n in
  if l >= 0 then t.cnt.(l) else 0

let is_used t n = use_count t n > 0

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
