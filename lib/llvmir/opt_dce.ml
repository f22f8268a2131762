(** Dead code elimination: removes pure instructions whose results are
    unused, plus calls to known-pure intrinsics.  A worklist over the
    function index's use counts cascades through chains of dead
    instructions without ever re-indexing the function.

    The whole pass runs on the packed {!Iarena}: kill flags and the
    dense use-count array are the only state, the cascade walks
    operand-pool slots through {!Findex.local_of_slot} with no hashing
    and no allocation, and the surviving rows materialise physically
    identical to the input.  The pass indexes the compacted arena it
    just wrote and seeds the analysis cache, so the post-pass verifier
    reads the same flat storage. *)

open Lmodule
module Sym = Support.Interner

(** Intrinsics with no side effects (safe to delete when unused). *)
let pure_intrinsic name =
  let starts_with p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  starts_with "llvm.smax." || starts_with "llvm.smin."
  || starts_with "llvm.umax." || starts_with "llvm.umin."
  || starts_with "llvm.abs." || starts_with "llvm.fmuladd."
  || starts_with "llvm.fma." || starts_with "llvm.fabs."
  || starts_with "llvm.sqrt."

let run_func ~am (f : func) : func =
  let idx = Analysis.findex ~am f in
  let a = Findex.arena idx in
  let n = Iarena.n_instrs a in
  (* operand-occurrence counts among still-live instructions, by dense
     local id *)
  let counts = Findex.use_counts idx in
  let worklist = ref [] in
  let removable k =
    let tg = Iarena.tag a k in
    Iarena.pure_tag tg
    || (tg = Iarena.tag_call && pure_intrinsic (Iarena.callee a k))
  in
  let try_kill k =
    if not (Iarena.is_dead a k) then begin
      let l = Findex.local_of_res idx k in
      if l >= 0 && counts.(l) = 0 && removable k then begin
        Iarena.kill a k;
        worklist := k :: !worklist
      end
    end
  in
  for k = 0 to n - 1 do
    try_kill k
  done;
  let rec drain () =
    match !worklist with
    | [] -> ()
    | k :: rest ->
        worklist := rest;
        let o = Iarena.op_off a k in
        for s = o to o + Iarena.op_len a k - 1 do
          let l = Findex.local_of_slot idx s in
          if l >= 0 then begin
            counts.(l) <- counts.(l) - 1;
            if counts.(l) = 0 then
              match Findex.def_of_local idx l with
              | Some (Findex.Instr dk) -> try_kill dk
              | _ -> ()
          end
        done;
        drain ()
  in
  drain ();
  if Iarena.live_count a = n then f else Analysis.materialize ~am f a
