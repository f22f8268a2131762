(** Dead-store detection for lint rule HLS004: a backward may-read
    fixpoint over the {!Cfg}, at whole-array granularity. *)

open Linstr
module Sym = Support.Interner
module SymSet = Sym.Set

(** [may_read cfg reads] is, for each block, the set of array roots
    that some path from the block's exit may still load.  [reads b
    after] adds the loads of block [b] to the set [after] live at its
    exit.  Blocks are seeded in reverse postorder reversed, so loop-free
    regions converge in one sweep. *)
let may_read (cfg : Cfg.t) (reads : int -> SymSet.t -> SymSet.t) :
    SymSet.t array =
  let n = Cfg.n_blocks cfg in
  let read_in = Array.make n SymSet.empty in
  let read_out = Array.make n SymSet.empty in
  if n > 0 then begin
    let queued = Array.make n false in
    let work = Queue.create () in
    let push b =
      if not queued.(b) then begin
        Queue.add b work;
        queued.(b) <- true
      end
    in
    List.iter push (List.rev (Cfg.reverse_postorder cfg));
    while not (Queue.is_empty work) do
      let b = Queue.take work in
      queued.(b) <- false;
      read_out.(b) <-
        List.fold_left
          (fun acc s -> SymSet.union acc read_in.(s))
          SymSet.empty cfg.Cfg.succs.(b);
      let in' = reads b read_out.(b) in
      if not (SymSet.equal in' read_in.(b)) then begin
        read_in.(b) <- in';
        List.iter push cfg.Cfg.preds.(b)
      end
    done
  end;
  read_out

type dead_store = {
  ds_block : int;
  ds_index : int;  (** instruction index within the block *)
  ds_array : string;  (** root alloca the store writes *)
}

(** Whole-array granularity backward may-read analysis: the flow value
    is the set of array roots that may still be loaded on some path.
    A store to a {e local} (alloca) array whose root is not in that set
    — and which never escapes through a call, a stored pointer or a
    return — can never be observed.

    Pointer parameters and globals are read by the caller, so they are
    in the read set at every exit and their stores are never flagged.
    The function index comes from [am]. *)
let dead_stores ~am (cfg : Cfg.t) : dead_store list =
  let f = cfg.Cfg.func in
  let idx = Analysis.findex ~am f in
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
  let read_out = may_read cfg reads_of_block in
  (* scan each block backward with the precise per-point read set *)
  let out = ref [] in
  for b = n - 1 downto 0 do
    let blk = Cfg.block cfg b in
    let insts = Array.of_list blk.Lmodule.insts in
    let read = ref read_out.(b) in
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
                { ds_block = b; ds_index = ii; ds_array = Sym.name r } :: !out
          | _ -> ())
      | _ -> ()
    done
  done;
  !out
