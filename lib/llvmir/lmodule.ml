(** LLVM IR containers: blocks, functions, globals, modules — plus the
    rewrite utilities every pass builds on.

    Block labels are interned symbols; per-function def/use/def-map
    tables live in {!Findex} (built once per function and shared), not
    here. *)

module Sym = Support.Interner

type param = {
  pname : string;
  pty : Ltype.t;
  pattrs : (string * string) list;
      (** e.g. [("fpga.interface", "bram")], [("partition.factor", "4")] *)
}

type block = { label : Sym.t; insts : Linstr.t list }

type func = {
  fname : string;
  ret_ty : Ltype.t;
  params : param list;
  blocks : block list;  (** head = entry *)
  fattrs : (string * string) list;
}

type global = {
  gname : string;
  gty : Ltype.t;  (** content type *)
  ginit : Lvalue.const option;
  gconst : bool;
}

(** External declaration (intrinsics, HLS spec ops). *)
type decl = { dname : string; dret : Ltype.t; dargs : Ltype.t list }

type t = {
  mname : string;
  funcs : func list;
  globals : global list;
  decls : decl list;
}

let empty name = { mname = name; funcs = []; globals = []; decls = [] }

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg ("Lmodule.find_func_exn: no function @" ^ name)

let find_block f label =
  List.find_opt (fun b -> Sym.equal b.label label) f.blocks

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Lmodule.find_block_exn: no block %%%s in @%s"
           (Sym.name label) f.fname)

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("Lmodule.entry: function @" ^ f.fname ^ " has no blocks")

let find_decl m name = List.find_opt (fun d -> d.dname = name) m.decls

(** Add a declaration if not already present. *)
let ensure_decl m (d : decl) =
  if find_decl m d.dname <> None then m else { m with decls = d :: m.decls }

let map_funcs fn m = { m with funcs = List.map fn m.funcs }

(** [share_unchanged ~prev m] — wherever a function of [m] is
    structurally equal to the same-named function of [prev], reuse
    [prev]'s physical value.  Passes that rebuild every function
    unconditionally (list-rewriting transforms) destroy the physical
    identity the {!Analysis} caches and the incremental verifier key
    on; running their output through this restores it, so a pass that
    changed nothing costs nothing downstream.  Structural equality
    uses the polymorphic compare (total on this tree, NaN-safe), so a
    restored value prints byte-identically by construction. *)
let share_unchanged ~(prev : t) (m : t) : t =
  if prev == m then m
  else begin
    let old = Hashtbl.create 16 in
    List.iter (fun (f : func) -> Hashtbl.replace old f.fname f) prev.funcs;
    let shared = ref false in
    let funcs =
      List.map
        (fun (f : func) ->
          match Hashtbl.find_opt old f.fname with
          | Some fo when fo == f -> f
          | Some fo when Stdlib.compare fo f = 0 ->
              shared := true;
              fo
          | _ -> f)
        m.funcs
    in
    if !shared then { m with funcs } else m
  end

(** Total instruction count — the "IR size" metric pass tracing
    reports deltas of. *)
let instr_count (m : t) : int =
  List.fold_left
    (fun acc f ->
      List.fold_left (fun acc b -> acc + List.length b.insts) acc f.blocks)
    0 m.funcs

(* ------------------------------------------------------------------ *)
(* Traversal / rewriting                                              *)
(* ------------------------------------------------------------------ *)

let iter_insts f (fn : func) =
  List.iter (fun b -> List.iter f b.insts) fn.blocks

let fold_insts f acc (fn : func) =
  List.fold_left
    (fun acc b -> List.fold_left f acc b.insts)
    acc fn.blocks

let inst_count fn = fold_insts (fun n _ -> n + 1) 0 fn

(** Rewrite every instruction; [f] returns the replacement list. *)
let rewrite_insts f (fn : func) =
  {
    fn with
    blocks =
      List.map
        (fun b -> { b with insts = List.concat_map f b.insts })
        fn.blocks;
  }

(** Map all operand values through [f] everywhere in the function. *)
let map_values f (fn : func) =
  rewrite_insts (fun i -> [ Linstr.map_operands f i ]) fn

(** Fresh-name generator seeded with every name already in [fn]. *)
let namegen (fn : func) =
  Support.Namegen.create
    ~seed:(fun reserve ->
      List.iter (fun p -> reserve p.pname) fn.params;
      List.iter (fun b -> reserve (Sym.name b.label)) fn.blocks;
      iter_insts
        (fun i ->
          if not (Sym.is_empty i.Linstr.result) then
            reserve (Sym.name i.Linstr.result))
        fn)
    ()
