(** Dead code elimination by liveness: a row that is not removable
    (side effects, control, memory, no result) is live, and so is the
    def of every register a live row reads; every other row is
    dropped.  Marking from the live rows removes what a use count
    cannot: a cycle of dead phis, each read only by another, which
    mem2reg leaves at every dominance frontier of a variable nothing
    reads afterwards.  The surviving records come back physically
    identical, and the function itself when every row is live. *)

open Lmodule
module Sym = Support.Interner

(** Intrinsics with no side effects (safe to delete when unused). *)
let pure_intrinsic name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "llvm.smax."; "llvm.smin."; "llvm.umax."; "llvm.umin."; "llvm.abs.";
      "llvm.fmuladd."; "llvm.fma."; "llvm.fabs."; "llvm.sqrt." ]

let removable (i : Linstr.t) =
  Linstr.is_pure i
  || match i.op with Call { callee; _ } -> pure_intrinsic callee | _ -> false

let run_func ~am (f : func) : func =
  let idx = Analysis.findex ~am f in
  let n = Findex.n_instrs idx in
  let live = Array.make n false and n_live = ref 0 in
  let rec mark k =
    if not live.(k) then begin
      live.(k) <- true;
      incr n_live;
      List.iter
        (function
          | Lvalue.Reg (r, _) -> (
              match Findex.def idx r with
              | Some (Findex.Instr d) -> mark d
              | _ -> ())
          | _ -> ())
        (Linstr.operands (Findex.instr idx k))
    end
  in
  for k = 0 to n - 1 do
    let i = Findex.instr idx k in
    if Sym.is_empty i.result || not (removable i) then mark k
  done;
  if !n_live = n then f
  else
    {
      f with
      blocks =
        Findex.rebuild idx (fun k ->
            if live.(k) then [ Findex.instr idx k ] else []);
    }
