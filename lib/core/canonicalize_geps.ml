(** Adaptor pass 4: GEP canonicalization.

    Merges chained GEPs ([gep (gep p, …, k), 0, …] → one GEP) and
    normalizes index types to [i64].  Vitis' middle-end recognizes
    BRAM access patterns from single multi-dimensional GEPs; chains —
    typical of Clang's array-decay output and of our C round-trip
    front-end — defeat that matching.

    The merge fixpoint runs in place on the packed {!Llvmir.Iarena}:
    a merged row gets a freshly pushed operand span (the def's span
    followed by the chain's tail indices), and the next round walks
    the same flat storage.  Rounds keep the historical one-pass-per-
    round semantics — a def merged earlier in the same round is read
    through its start-of-round snapshot, which stays valid because the
    operand pool is append-only — so merge counts and intermediate
    states match the list-rewriting implementation exactly. *)

open Llvmir
open Linstr

type stats = { mutable merged : int; mutable widened : int }

let fresh_stats () = { merged = 0; widened = 0 }

let run_func ~stats ~am (f : Lmodule.func) : Lmodule.func =
  let names = Lmodule.namegen f in
  let idx = Analysis.findex ~am f in
  let a = Findex.arena idx in
  let n = Iarena.n_instrs a in
  (* start-of-round snapshot of rows modified this round, so intra-
     round def reads see the round's input state *)
  let stamp = Array.make n (-1) in
  let snap_off = Array.make n 0 and snap_len = Array.make n 0 in
  let snap_aux = Array.make n 0 and snap_ib = Array.make n false in
  let any_merge = ref false in
  (* iterate: merging can expose further merges *)
  let round = ref 0 and changed = ref true in
  while !changed && !round < 8 do
    changed := false;
    for k = 0 to n - 1 do
      if Iarena.tag a k = Iarena.tag_gep && Iarena.op_len a k >= 2 then begin
        let o = Iarena.op_off a k and l = Iarena.op_len a k in
        match (Iarena.opnd a o, Iarena.opnd a (o + 1)) with
        | Lvalue.Reg (bn, _), Lvalue.Const (Lvalue.CInt (0, _)) -> (
            match Findex.def idx bn with
            | Some (Findex.Instr dk) when Iarena.tag a dk = Iarena.tag_gep ->
                (* gep (gep b0, idxs0), 0, rest  ==  gep b0, idxs0 @ rest *)
                let d_off, d_len, d_aux, d_ib =
                  if stamp.(dk) = !round then
                    (snap_off.(dk), snap_len.(dk), snap_aux.(dk), snap_ib.(dk))
                  else
                    ( Iarena.op_off a dk,
                      Iarena.op_len a dk,
                      Iarena.aux0 a dk,
                      Iarena.inbounds a dk )
                in
                let k_ib = Iarena.inbounds a k in
                stamp.(k) <- !round;
                snap_off.(k) <- o;
                snap_len.(k) <- l;
                snap_aux.(k) <- Iarena.aux0 a k;
                snap_ib.(k) <- k_ib;
                let po = Iarena.pool_len a in
                for s = d_off to d_off + d_len - 1 do
                  Iarena.push_copy a s
                done;
                for s = o + 2 to o + l - 1 do
                  Iarena.push_copy a s
                done;
                Iarena.set_span a k ~off:po ~len:(d_len + l - 2);
                Iarena.set_aux0 a k d_aux;
                Iarena.set_inbounds a k (k_ib && d_ib);
                stats.merged <- stats.merged + 1;
                changed := true;
                any_merge := true
            | _ -> ())
        | _ -> ()
      end
    done;
    incr round
  done;
  (* widen i32 GEP indices to i64 via sext *)
  let pre : (int, Linstr.t list) Hashtbl.t = Hashtbl.create 8 in
  let any_widen = ref false in
  for k = 0 to n - 1 do
    if Iarena.tag a k = Iarena.tag_gep then begin
      let o = Iarena.op_off a k and l = Iarena.op_len a k in
      let has_i32 = ref false in
      for s = o + 1 to o + l - 1 do
        if Ltype.equal (Lvalue.type_of (Iarena.opnd a s)) Ltype.I32 then
          has_i32 := true
      done;
      if !has_i32 then begin
        any_widen := true;
        let pres = ref [] in
        for s = o + 1 to o + l - 1 do
          let v = Iarena.opnd a s in
          if Ltype.equal (Lvalue.type_of v) Ltype.I32 then begin
            match v with
            | Lvalue.Const (Lvalue.CInt (c, _)) ->
                Iarena.set_opnd a k s (Lvalue.ci64 c)
            | _ ->
                stats.widened <- stats.widened + 1;
                let r = Support.Namegen.fresh names "sext" in
                pres :=
                  Linstr.make ~result:r ~ty:Ltype.I64 (Cast (Sext, v, Ltype.I64))
                  :: !pres;
                Iarena.set_opnd a k s (Lvalue.reg r Ltype.I64)
          end
        done;
        if !pres <> [] then Hashtbl.replace pre k (List.rev !pres)
      end
    end
  done;
  if not (!any_merge || !any_widen) then Opt_dce.run_func ~am f
  else begin
    let blocks =
      List.init (Iarena.n_blocks a) (fun bi ->
          let insts = ref [] in
          for k = Iarena.block_stop a bi - 1 downto Iarena.block_start a bi do
            let tail = Iarena.instr a k :: !insts in
            insts :=
              (match Hashtbl.find_opt pre k with
              | Some ps -> ps @ tail
              | None -> tail)
          done;
          { Lmodule.label = Iarena.block_label a bi; insts = !insts })
    in
    (* a manager of its own: querying this mid-pass value under the
       job's manager would evict the CFG and dominator tree it carries
       for [f] *)
    Opt_dce.run_func ~am:(Analysis.create ()) { f with Lmodule.blocks }
  end

let run ~stats ~am (m : Lmodule.t) : Lmodule.t =
  Lmodule.map_funcs (run_func ~stats ~am) m
