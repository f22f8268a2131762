(** Dead code elimination: removes pure instructions whose results are
    unused, plus calls to known-pure intrinsics.  A worklist over the
    function index's use counts cascades through chains of dead
    instructions without ever re-indexing the function: kill flags and
    the dense use-count array are the only state, and the surviving
    records come back physically identical to the input. *)

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
  (* operand-occurrence counts among still-live instructions, by dense
     local id *)
  let counts = Findex.use_counts idx in
  let dead = Array.make n false in
  let worklist = ref [] in
  let try_kill k =
    if not dead.(k) then begin
      let l = Findex.local_of_res idx k in
      if l >= 0 && counts.(l) = 0 && removable (Findex.instr idx k) then begin
        dead.(k) <- true;
        worklist := k :: !worklist
      end
    end
  in
  for k = 0 to n - 1 do
    try_kill k
  done;
  if !worklist = [] then f
  else begin
    let rec drain () =
      match !worklist with
      | [] -> ()
      | k :: rest ->
          worklist := rest;
          List.iter
            (function
              | Lvalue.Reg (r, _) ->
                  let l = Findex.local_of idx r in
                  counts.(l) <- counts.(l) - 1;
                  if counts.(l) = 0 then (
                    match Findex.def_of_local idx l with
                    | Some (Findex.Instr dk) -> try_kill dk
                    | _ -> ())
              | _ -> ())
            (Linstr.operands (Findex.instr idx k));
          drain ()
    in
    drain ();
    {
      f with
      blocks =
        Findex.rebuild idx (fun k ->
            if dead.(k) then [] else [ Findex.instr idx k ]);
    }
  end
