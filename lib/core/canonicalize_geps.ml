(** Adaptor pass 4: GEP canonicalization.

    Merges chained GEPs ([gep (gep p, …, k), 0, …] → one GEP) and
    normalizes index types to [i64].  Vitis' middle-end recognizes
    BRAM access patterns from single multi-dimensional GEPs; chains —
    typical of Clang's array-decay output and of our C round-trip
    front-end — defeat that matching.

    The merge fixpoint rewrites the function index's rows: a merged
    row becomes one GEP over the def's base and indices followed by the
    chain's tail, and the next round reads the rewritten rows.  Rounds
    keep the historical one-pass-per-round semantics — every row, a def
    merged earlier in the same round included, is read as it stood at
    the start of the round — so merge counts and intermediate states
    match the list-rewriting implementation exactly. *)

open Llvmir
open Linstr

type stats = { mutable merged : int; mutable widened : int }

let fresh_stats () = { merged = 0; widened = 0 }

let run_func ~stats ~am (f : Lmodule.func) : Lmodule.func =
  let names = Lmodule.namegen f in
  let idx = Analysis.findex ~am f in
  let n = Findex.n_instrs idx in
  let cur = Array.init n (Findex.instr idx) in
  let any_merge = ref false in
  (* iterate: merging can expose further merges *)
  let round = ref 0 and changed = ref true in
  while !changed && !round < 8 do
    changed := false;
    let prev = Array.copy cur in
    for k = 0 to n - 1 do
      match prev.(k).op with
      | Gep
          ({ base = Lvalue.Reg (bn, _);
             idxs = Lvalue.Const (Lvalue.CInt (0, _)) :: rest;
             _ } as g) -> (
          match Findex.def idx bn with
          | Some (Findex.Instr dk) -> (
              match prev.(dk).op with
              | Gep d ->
                  (* gep (gep b0, idxs0), 0, rest  ==  gep b0, idxs0 @ rest *)
                  cur.(k) <-
                    {
                      (prev.(k)) with
                      op =
                        Gep
                          {
                            inbounds = g.inbounds && d.inbounds;
                            src_ty = d.src_ty;
                            base = d.base;
                            idxs = d.idxs @ rest;
                          };
                    };
                  stats.merged <- stats.merged + 1;
                  changed := true;
                  any_merge := true
              | _ -> ())
          | _ -> ())
      | _ -> ()
    done;
    incr round
  done;
  (* widen i32 GEP indices to i64 via sext *)
  let is_i32 v = Ltype.equal (Lvalue.type_of v) Ltype.I32 in
  let pre = Array.make n [] in
  let any_widen = ref false in
  for k = 0 to n - 1 do
    match cur.(k).op with
    | Gep g when List.exists is_i32 g.idxs ->
        any_widen := true;
        let pres = ref [] in
        let widen v =
          if not (is_i32 v) then v
          else
            match v with
            | Lvalue.Const (Lvalue.CInt (c, _)) -> Lvalue.ci64 c
            | _ ->
                stats.widened <- stats.widened + 1;
                let r = Support.Namegen.fresh names "sext" in
                pres :=
                  Linstr.make ~result:r ~ty:Ltype.I64 (Cast (Sext, v, Ltype.I64))
                  :: !pres;
                Lvalue.reg r Ltype.I64
        in
        let idxs = List.map widen g.idxs in
        cur.(k) <- { (cur.(k)) with op = Gep { g with idxs } };
        pre.(k) <- List.rev !pres
    | _ -> ()
  done;
  if not (!any_merge || !any_widen) then Opt_dce.run_func ~am f
  else
    let blocks = Findex.rebuild idx (fun k -> pre.(k) @ [ cur.(k) ]) in
    (* a manager of its own: querying this mid-pass value under the
       job's manager would evict the CFG and dominator tree it carries
       for [f] *)
    Opt_dce.run_func ~am:(Analysis.create ()) { f with Lmodule.blocks }

let run ~stats ~am (m : Lmodule.t) : Lmodule.t =
  Lmodule.map_funcs (run_func ~stats ~am) m
