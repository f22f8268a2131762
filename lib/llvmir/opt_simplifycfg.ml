(** CFG simplification:
    - fold conditional branches on constant conditions;
    - remove blocks unreachable from the entry (fixing up phis);
    - merge a block into its unique predecessor when that predecessor
      has a single successor (straightening chains the lowering and
      other passes leave behind). *)

open Linstr
open Lmodule
module Sym = Support.Interner

(** Drop phi entries coming from labels not in [preds]. *)
let prune_phis (f : func) (live_preds : Sym.t -> Sym.t list) : func =
  {
    f with
    blocks =
      List.map
        (fun (b : block) ->
          let keep = live_preds b.label in
          {
            b with
            insts =
              List.concat_map
                (fun (i : Linstr.t) ->
                  match i.op with
                  | Phi incoming -> (
                      let incoming' =
                        List.filter (fun (_, l) -> List.mem l keep) incoming
                      in
                      match incoming' with
                      | [] -> []
                      | _ -> [ { i with op = Phi incoming' } ])
                  | _ -> [ i ])
                b.insts;
          })
        f.blocks;
  }

let fold_const_branches (f : func) : func * bool =
  let changed = ref false in
  let f' =
    rewrite_insts
      (fun (i : Linstr.t) ->
        match i.op with
        | CondBr (Lvalue.Const (Lvalue.CInt (c, _)), t, e) ->
            changed := true;
            [ { i with op = Br (if c <> 0 then t else e) } ]
        | CondBr (_, t, e) when t = e ->
            changed := true;
            [ { i with op = Br t } ]
        | _ -> [ i ])
      f
  in
  (* return the original value when nothing folded: downstream CFG
     queries and the incremental verifier key on physical identity, so
     handing back a rebuilt copy would invalidate both for a no-op *)
  ((if !changed then f' else f), !changed)

let remove_unreachable ~am (f : func) : func * bool =
  let cfg = Analysis.cfg ~am f in
  let dead = Cfg.unreachable_blocks cfg in
  if dead = [] then (f, false)
  else begin
    let dead_labels = List.map (Cfg.label cfg) dead in
    let blocks =
      List.filter (fun (b : block) -> not (List.mem b.label dead_labels)) f.blocks
    in
    let f' = { f with blocks } in
    let cfg' = Analysis.cfg ~am f' in
    let live_preds label =
      match Cfg.index_of cfg' label with
      | Some i -> List.map (Cfg.label cfg') cfg'.Cfg.preds.(i)
      | None -> []
    in
    (prune_phis f' live_preds, true)
  end

(** Merge each block into its unique predecessor when that predecessor
    has a single successor and the block has no phis.  Whole chains
    ([a -> b -> c]) collapse in one sweep: every absorbable block is
    marked against one CFG, then each unabsorbed head concatenates its
    chain's instructions (dropping the intermediate terminators) in a
    single rebuild — the fixpoint a merge-one-pair-then-recompute loop
    reaches, without the per-merge CFG rebuilds. *)
let merge_blocks ~am (f : func) : func * bool =
  let cfg = Analysis.cfg ~am f in
  let n = Cfg.n_blocks cfg in
  (* absorbed.(bi) = true: bi folds into its unique predecessor *)
  let absorbed = Array.make n false in
  let any = ref false in
  for bi = 1 to n - 1 do
    match cfg.Cfg.preds.(bi) with
    | [ p ] when List.length cfg.Cfg.succs.(p) = 1 && p <> bi ->
        let blk = Cfg.block cfg bi in
        let has_phi =
          List.exists
            (fun (i : Linstr.t) ->
              match i.op with Phi _ -> true | _ -> false)
            blk.insts
        in
        if not has_phi then begin
          absorbed.(bi) <- true;
          any := true
        end
    | _ -> ()
  done;
  if not !any then (f, false)
  else begin
    (* absorbed label -> label of its chain head, for phi fixup *)
    let head_of = Array.init n Fun.id in
    for bi = 1 to n - 1 do
      (* preds come before their single successor in any order; resolve
         lazily by chasing to the root *)
      if absorbed.(bi) then
        match cfg.Cfg.preds.(bi) with [ p ] -> head_of.(bi) <- p | _ -> ()
    done;
    (* fuel-bounded: a fully-absorbed cycle cannot be reachable (each
       node would need a second, external predecessor) and
       [remove_unreachable] runs first, but don't hang if that ordering
       ever changes *)
    let rec root fuel bi =
      if head_of.(bi) = bi || fuel = 0 then bi else root (fuel - 1) head_of.(bi)
    in
    let relabel : Sym.t Sym.Tbl.t = Sym.Tbl.create 8 in
    for bi = 1 to n - 1 do
      if absorbed.(bi) then
        Sym.Tbl.replace relabel (Cfg.label cfg bi) (Cfg.label cfg (root n bi))
    done;
    let drop_term insts =
      match List.rev insts with _term :: rest -> List.rev rest | [] -> []
    in
    let rec chain_insts bi =
      let blk = Cfg.block cfg bi in
      match cfg.Cfg.succs.(bi) with
      | [ s ] when absorbed.(s) -> drop_term blk.insts @ chain_insts s
      | _ -> blk.insts
    in
    let blocks = ref [] in
    for bi = n - 1 downto 0 do
      if not absorbed.(bi) then
        blocks :=
          { (Cfg.block cfg bi) with insts = chain_insts bi } :: !blocks
    done;
    (* phis referencing an absorbed label now come from its chain head *)
    let fixup (b : block) =
      {
        b with
        insts =
          List.map
            (fun (i : Linstr.t) ->
              match i.op with
              | Phi incoming ->
                  {
                    i with
                    op =
                      Phi
                        (List.map
                           (fun ((v : Lvalue.t), l) ->
                             ( v,
                               match Sym.Tbl.find_opt relabel l with
                               | Some l' -> l'
                               | None -> l ))
                           incoming);
                  }
              | _ -> i)
            b.insts;
      }
    in
    ({ f with blocks = List.map fixup !blocks }, true)
  end

let run_func ~am (f : func) : func =
  let rec go f n =
    if n = 0 then f
    else begin
      let f, c1 = fold_const_branches f in
      let f, c2 = remove_unreachable ~am f in
      let f, c3 = merge_blocks ~am f in
      if c1 || c2 || c3 then go f (n - 1) else f
    end
  in
  go f 64
