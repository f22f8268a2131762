(** Per-function index over the packed {!Iarena} encoding: def table,
    use-def/def-use edges, block membership and use counts — computed
    once and shared by every analysis and pass that used to rebuild
    its own string tables ad hoc.

    SSA names map to dense {e local ids}; defs, use counts and user
    edges are flat arrays over those ids, so the hot passes (DCE's
    cascade, CSE's availability walk, substitution marking) run as int
    reads with no hashing past the one probe that assigns the id.

    The index is a pure snapshot of one [Lmodule.func] value; any pass
    that rewrites the function must use a fresh index (or one the
    {!Pass} analysis manager revalidated) afterwards. *)

module Sym = Support.Interner

type def_site =
  | Param of int  (** defined by the [i]-th function parameter *)
  | Instr of int  (** defined by the instruction at this arena index *)

type t = {
  func : Lmodule.func;
  arena : Iarena.t;
  locals : int Sym.Tbl.t;  (** SSA name -> dense local id *)
  mutable n_locals : int;
  (* per-local tables, grown in lockstep with [locals] *)
  mutable def_kind : Bytes.t;  (** '\000' none, '\001' param, '\002' instr *)
  mutable def_ix : int array;
  mutable cnt : int array;  (** operand occurrences *)
  mutable user_head : int array;  (** head of the user edge list, -1 *)
  (* user edges as linked lists in push order (layout order): edge [e]
     is instruction [edge_k.(e)], next edge [edge_next.(e)] *)
  mutable edge_k : int array;
  mutable edge_next : int array;
  mutable n_edges : int;
  res_local : int array;  (** arena index -> local id of result, -1 *)
  pool_local : int array;  (** operand slot -> local id, -1 for non-regs *)
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

(** Index a prebuilt arena.  [f] must be the function the arena
    materialises — {!build} pairs the two; passes seeding the analysis
    cache pair {!Iarena.compact} with their output function. *)
let of_arena (f : Lmodule.func) (a : Iarena.t) : t =
  let n = Iarena.n_instrs a in
  let cap l = max 16 l in
  let t =
    {
      func = f;
      arena = a;
      locals = Sym.Tbl.create (cap (2 * n));
      n_locals = 0;
      def_kind = Bytes.make (cap (n + List.length f.params)) '\000';
      def_ix = Array.make (cap (n + List.length f.params)) 0;
      cnt = Array.make (cap (n + List.length f.params)) 0;
      user_head = Array.make (cap (n + List.length f.params)) (-1);
      edge_k = Array.make (cap (2 * n)) 0;
      edge_next = Array.make (cap (2 * n)) 0;
      n_edges = 0;
      res_local = Array.make (max 1 n) (-1);
      pool_local = Array.make (max 1 (Iarena.pool_len a)) (-1);
    }
  in
  List.iteri
    (fun i (p : Lmodule.param) ->
      let l = local t (Sym.intern p.pname) in
      Bytes.set t.def_kind l '\001';
      t.def_ix.(l) <- i)
    f.params;
  for k = 0 to n - 1 do
    let r = Iarena.result a k in
    if not (Sym.is_empty r) then begin
      let l = local t r in
      Bytes.set t.def_kind l '\002';
      t.def_ix.(l) <- k;
      t.res_local.(k) <- l
    end;
    let o = Iarena.op_off a k in
    for s = o to o + Iarena.op_len a k - 1 do
      match Iarena.opnd a s with
      | Lvalue.Reg (nm, _) ->
          let l = local t nm in
          t.pool_local.(s) <- l;
          t.cnt.(l) <- t.cnt.(l) + 1;
          (* an instruction using a name twice still lists once —
             callers only need the user set *)
          let h = t.user_head.(l) in
          if h = -1 || t.edge_k.(h) <> k then push_edge t l k
      | _ -> ()
    done
  done;
  t

let build (f : Lmodule.func) : t = of_arena f (Iarena.of_func f)

(** Rebase a cached index onto a rewritten function value.  Only valid
    when the rewrite changed no instruction — the analysis-manager
    preserve contract for the findex analysis. *)
let rebase t (f : Lmodule.func) = { t with func = f }

let func t = t.func
let arena t = t.arena
let n_instrs t = Iarena.n_instrs t.arena
let n_blocks t = Iarena.n_blocks t.arena
let instr t k = Iarena.instr t.arena k
let block_of_instr t k = Iarena.block_of t.arena k
let n_locals t = t.n_locals
let local_of t n = match Sym.Tbl.find_opt t.locals n with Some l -> l | None -> -1
let local_of_slot t s = t.pool_local.(s)
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

let iter_users t n f =
  let l = local_of t n in
  if l >= 0 then begin
    let e = ref t.user_head.(l) in
    while !e >= 0 do
      f t.edge_k.(!e);
      e := t.edge_next.(!e)
    done
  end

(** Arena indices of the instructions using [n], in layout order. *)
let users t n =
  let acc = ref [] in
  iter_users t n (fun k -> acc := k :: !acc);
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
   final value, so the rewrite walk below resolves each operand with
   one lookup. *)
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

(** Write a substitution into the arena in place: chains are
    path-compressed once, then every live instruction the index lists
    as a user of a substituted name gets its operand slots rewritten.
    Returns the compressed table for values held outside the arena. *)
let rewrite_users (idx : t) (subst : Lvalue.t Sym.Tbl.t) : Lvalue.t Sym.Tbl.t =
  let a = idx.arena in
  let resolved = compress_chains subst in
  Sym.Tbl.iter
    (fun n _ ->
      iter_users idx n (fun k ->
          if not (Iarena.is_dead a k) then begin
            let o = Iarena.op_off a k in
            for s = o to o + Iarena.op_len a k - 1 do
              match Iarena.opnd a s with
              | Lvalue.Reg (r, _) -> (
                  match Sym.Tbl.find_opt resolved r with
                  | Some v' -> Iarena.set_opnd a k s v'
                  | None -> ())
              | _ -> ()
            done
          end))
    subst;
  resolved

(** Convenience: substitute over a function without a prebuilt index —
    still one walk (compressed chains, one lookup per operand), but
    skips building use-def tables nothing else will read. *)
let substitute_func (subst : Lvalue.t Sym.Tbl.t) (f : Lmodule.func) :
    Lmodule.func =
  if Sym.Tbl.length subst = 0 then f
  else begin
    let resolved = compress_chains subst in
    let resolve v =
      match v with
      | Lvalue.Reg (n, _) -> (
          match Sym.Tbl.find_opt resolved n with Some v' -> v' | None -> v)
      | _ -> v
    in
    Lmodule.map_values resolve f
  end
