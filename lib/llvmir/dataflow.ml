(** Generic iterative dataflow over the {!Cfg}, plus the three
    instantiations the lint rules consume: liveness, reaching
    definitions and dead-store detection.

    The framework is a plain worklist fixpoint: a problem supplies the
    direction, the lattice operations (join / equal), the boundary
    value injected at the entry (forward) or the exit blocks
    (backward), and a per-block transfer function.  Blocks are seeded
    in reverse postorder (or its reverse) so typical problems converge
    in two or three sweeps. *)

open Linstr
module Sym = Support.Interner
module SymSet = Sym.Set

type direction = Forward | Backward

type 'a problem = {
  direction : direction;
  boundary : 'a;  (** value entering the entry block / leaving exits *)
  init : 'a;  (** optimistic initial value for every block *)
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
  transfer : int -> 'a -> 'a;
      (** block index -> in-value -> out-value (in flow direction) *)
}

(** [inb]/[outb] are in {e program} order: [inb.(b)] holds at block
    entry, [outb.(b)] at block exit, regardless of direction. *)
type 'a solution = { inb : 'a array; outb : 'a array }

let solve (cfg : Cfg.t) (p : 'a problem) : 'a solution =
  let n = Cfg.n_blocks cfg in
  let inb = Array.make n p.init in
  let outb = Array.make n p.init in
  if n = 0 then { inb; outb }
  else begin
    let rpo = Cfg.reverse_postorder cfg in
    let order = match p.direction with Forward -> rpo | Backward -> List.rev rpo in
    (* edges feeding a block's flow input, in flow direction *)
    let flow_preds b =
      match p.direction with
      | Forward -> cfg.Cfg.preds.(b)
      | Backward -> cfg.Cfg.succs.(b)
    in
    let at_boundary b =
      match p.direction with
      | Forward -> b = 0
      | Backward -> cfg.Cfg.succs.(b) = []
    in
    (* flow-facing views of the two arrays *)
    let get_in b = match p.direction with Forward -> inb.(b) | Backward -> outb.(b) in
    let set_in b v = match p.direction with Forward -> inb.(b) <- v | Backward -> outb.(b) <- v in
    let get_out b = match p.direction with Forward -> outb.(b) | Backward -> inb.(b) in
    let set_out b v = match p.direction with Forward -> outb.(b) <- v | Backward -> inb.(b) <- v in
    let in_work = Array.make n false in
    let work = Queue.create () in
    List.iter
      (fun b ->
        Queue.add b work;
        in_work.(b) <- true)
      order;
    while not (Queue.is_empty work) do
      let b = Queue.take work in
      in_work.(b) <- false;
      let incoming =
        let base = if at_boundary b then Some p.boundary else None in
        List.fold_left
          (fun acc pr ->
            match acc with
            | None -> Some (get_out pr)
            | Some v -> Some (p.join v (get_out pr)))
          base (flow_preds b)
      in
      (match incoming with Some v -> set_in b v | None -> ());
      let out' = p.transfer b (get_in b) in
      if not (p.equal out' (get_out b)) then begin
        set_out b out';
        List.iter
          (fun s ->
            if not in_work.(s) then begin
              Queue.add s work;
              in_work.(s) <- true
            end)
          (match p.direction with
          | Forward -> cfg.Cfg.succs.(b)
          | Backward -> cfg.Cfg.preds.(b))
      end
    done;
    { inb; outb }
  end

(* ------------------------------------------------------------------ *)
(* Liveness                                                           *)
(* ------------------------------------------------------------------ *)

type liveness = {
  live_in : SymSet.t array;
  live_out : SymSet.t array;
}

let reg_name = function Lvalue.Reg (n, _) -> Some n | _ -> None

(** Backward may-analysis over register names.  Phi operands are uses
    {e on the incoming edge}: they count as end-of-block uses of the
    predecessor, never as live-in of the phi's own block. *)
let liveness (cfg : Cfg.t) : liveness =
  let n = Cfg.n_blocks cfg in
  let use = Array.make n SymSet.empty in
  let def = Array.make n SymSet.empty in
  for b = 0 to n - 1 do
    let blk = Cfg.block cfg b in
    List.iter
      (fun (i : Linstr.t) ->
        (match i.op with
        | Phi _ -> ()  (* incoming values attributed to predecessors *)
        | _ ->
            List.iter
              (fun v ->
                match reg_name v with
                | Some r when not (SymSet.mem r def.(b)) ->
                    use.(b) <- SymSet.add r use.(b)
                | _ -> ())
              (operands i));
        if not (Sym.is_empty i.result) then def.(b) <- SymSet.add i.result def.(b))
      blk.Lmodule.insts
  done;
  (* phi-edge uses: value [v] flowing in from predecessor [l] is
     consumed at the end of [l].  It is always live-out there, and
     upward-exposed (a block use) unless [l] defines it itself. *)
  let phi_uses = Array.make n SymSet.empty in
  for b = 0 to n - 1 do
    let blk = Cfg.block cfg b in
    List.iter
      (fun (i : Linstr.t) ->
        match i.op with
        | Phi incoming ->
            List.iter
              (fun (v, l) ->
                match (reg_name v, Cfg.index_of cfg l) with
                | Some r, Some pb ->
                    phi_uses.(pb) <- SymSet.add r phi_uses.(pb);
                    if not (SymSet.mem r def.(pb)) then
                      use.(pb) <- SymSet.add r use.(pb)
                | _ -> ())
              incoming
        | _ -> ())
      blk.Lmodule.insts
  done;
  let sol =
    solve cfg
      {
        direction = Backward;
        boundary = SymSet.empty;
        init = SymSet.empty;
        join = SymSet.union;
        equal = SymSet.equal;
        transfer =
          (fun b out -> SymSet.union use.(b) (SymSet.diff out def.(b)));
      }
  in
  {
    live_in = sol.inb;
    live_out = Array.mapi (fun b s -> SymSet.union s phi_uses.(b)) sol.outb;
  }

(* ------------------------------------------------------------------ *)
(* Reaching definitions                                               *)
(* ------------------------------------------------------------------ *)

(** A definition site: register name and its (block, instruction)
    coordinates; parameters use [(-1, -1)]. *)
module DefSite = struct
  type t = Sym.t * int * int

  let compare = compare
end

module DefSet = Set.Make (DefSite)

type reaching = { reach_in : DefSet.t array; reach_out : DefSet.t array }

(** Forward may-analysis.  Under SSA every register has one definition,
    so kill sets are empty and a definition reaches exactly the blocks
    reachable from its own — the instantiation is still useful as the
    canonical forward problem (and for diagnosing broken SSA input). *)
let reaching_definitions (cfg : Cfg.t) : reaching =
  let n = Cfg.n_blocks cfg in
  let gen = Array.make n DefSet.empty in
  for b = 0 to n - 1 do
    let blk = Cfg.block cfg b in
    List.iteri
      (fun ii (i : Linstr.t) ->
        if not (Sym.is_empty i.result) then
          gen.(b) <- DefSet.add (i.result, b, ii) gen.(b))
      blk.Lmodule.insts
  done;
  let params =
    List.fold_left
      (fun acc (p : Lmodule.param) ->
        DefSet.add (Sym.intern p.Lmodule.pname, -1, -1) acc)
      DefSet.empty cfg.Cfg.func.Lmodule.params
  in
  let sol =
    solve cfg
      {
        direction = Forward;
        boundary = params;
        init = DefSet.empty;
        join = DefSet.union;
        equal = DefSet.equal;
        transfer = (fun b inv -> DefSet.union gen.(b) inv);
      }
  in
  { reach_in = sol.inb; reach_out = sol.outb }

(* ------------------------------------------------------------------ *)
(* Dead stores                                                        *)
(* ------------------------------------------------------------------ *)

type dead_store = {
  ds_block : int;
  ds_index : int;  (** instruction index within the block *)
  ds_array : string;  (** root alloca the store writes *)
  ds_inst : Linstr.t;
}

(** Whole-array granularity backward may-read analysis: the flow value
    is the set of array roots that may still be loaded on some path.
    A store to a {e local} (alloca) array whose root is not in that set
    — and which never escapes through a call, a stored pointer or a
    return — can never be observed.

    Pointer parameters and globals are read by the caller, so they are
    in the read set at every exit and their stores are never flagged.
    The function index comes from [?am] when given. *)
let dead_stores ?am (cfg : Cfg.t) : dead_store list =
  let f = cfg.Cfg.func in
  let idx = Analysis.findex ?am f in
  let root v = Findex.base_pointer idx v in
  (* roots whose address escapes: passed to a call, stored as a value,
     returned, cast to an integer, or folded into an aggregate *)
  let escaped = ref SymSet.empty in
  let escape v =
    match v with
    | Lvalue.Reg (_, ty) | Lvalue.Global (_, ty) when Ltype.is_pointer ty -> (
        match root v with
        | Some r -> escaped := SymSet.add r !escaped
        | None -> ())
    | _ -> ()
  in
  Lmodule.iter_insts
    (fun (i : Linstr.t) ->
      match i.op with
      | Call { args; _ } -> List.iter escape args
      | Store (v, _) -> escape v  (* the stored value, not the address *)
      | Ret (Some v) -> escape v
      | Cast (Ptrtoint, v, _) -> escape v
      | InsertValue (a, v, _) -> escape a; escape v
      | _ -> ())
    f;
  let is_local r =
    match Findex.def_instr idx r with
    | Some { op = Alloca _; _ } -> true
    | _ -> false
  in
  let n = Cfg.n_blocks cfg in
  (* per-block transfer (backward): loads and escapes add roots *)
  let reads_of_block b read_after =
    let blk = Cfg.block cfg b in
    List.fold_left
      (fun acc (i : Linstr.t) ->
        match i.op with
        | Load (_, p) -> (
            match root p with Some r -> SymSet.add r acc | None -> acc)
        | _ -> acc)
      read_after blk.Lmodule.insts
  in
  let sol =
    solve cfg
      {
        direction = Backward;
        boundary = SymSet.empty;
        init = SymSet.empty;
        join = SymSet.union;
        equal = SymSet.equal;
        transfer = reads_of_block;
      }
  in
  (* scan each block backward with the precise per-point read set *)
  let out = ref [] in
  for b = n - 1 downto 0 do
    let blk = Cfg.block cfg b in
    let insts = Array.of_list blk.Lmodule.insts in
    let read = ref sol.outb.(b) in
    for ii = Array.length insts - 1 downto 0 do
      let i = insts.(ii) in
      match i.op with
      | Load (_, p) -> (
          match root p with
          | Some r -> read := SymSet.add r !read
          | None -> ())
      | Store (_, p) -> (
          match root p with
          | Some r
            when is_local r
                 && (not (SymSet.mem r !read))
                 && not (SymSet.mem r !escaped) ->
              out :=
                {
                  ds_block = b;
                  ds_index = ii;
                  ds_array = Sym.name r;
                  ds_inst = i;
                }
                :: !out
          | _ -> ())
      | _ -> ()
    done
  done;
  !out
