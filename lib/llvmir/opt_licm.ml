(** Loop-invariant code motion.

    Pure instructions inside a loop whose operands are all defined
    outside the loop (or are constants) hoist to the loop's
    preheader — the unique out-of-loop predecessor of the header.
    Loops without a unique preheader are skipped (the structured
    lowering always produces one). *)

open Linstr
open Lmodule
module Sym = Support.Interner

(* The preheader runs even when the loop body does not (a zero-trip
   loop, a guarded block), so a hoisted instruction must not trap.
   Division and remainder trap on a zero divisor, and the signed ones
   overflow on -1: like LLVM, speculate them only when the divisor is
   a constant that rules both out. *)
let speculatable (i : Linstr.t) =
  match i.op with
  | IBin (((SDiv | SRem | UDiv | URem) as op), _, d) -> (
      match d with
      | Lvalue.Const (Lvalue.CInt (c, ty)) ->
          let c = Support.Int_sem.norm ~width:(Ltype.int_width ty) c in
          c <> 0 && (c <> -1 || op = UDiv || op = URem)
      | _ -> false)
  | _ -> true

let run_func ~am (f : func) : func =
  let cfg = Analysis.cfg ~am f in
  let li = Analysis.loop_info ~am f in
  if Array.length li.Loop_info.loops = 0 then f
  else begin
    let changed = ref false in
    (* process innermost-first so hoisted code can cascade outward *)
    let order =
      List.sort
        (fun a b ->
          compare li.Loop_info.loops.(b).Loop_info.depth
            li.Loop_info.loops.(a).Loop_info.depth)
        (List.init (Array.length li.Loop_info.loops) (fun i -> i))
    in
    let blocks = Array.of_list f.blocks in
    let label_index = Sym.Tbl.create 16 in
    Array.iteri
      (fun i (b : block) -> Sym.Tbl.replace label_index b.label i)
      blocks;
    List.iter
      (fun j ->
        let l = li.Loop_info.loops.(j) in
        let body_labels = List.map (Cfg.label cfg) l.Loop_info.body in
        (* defs inside the loop *)
        let inside_defs = Sym.Tbl.create 32 in
        List.iter
          (fun lbl ->
            let b = blocks.(Sym.Tbl.find label_index lbl) in
            List.iter
              (fun (i : Linstr.t) ->
                if not (Sym.is_empty i.result) then
                  Sym.Tbl.replace inside_defs i.result ())
              b.insts)
          body_labels;
        (* unique preheader *)
        let header_preds = cfg.Cfg.preds.(l.Loop_info.header) in
        let outside_preds =
          List.filter (fun p -> not (List.mem p l.Loop_info.body)) header_preds
        in
        match outside_preds with
        | [ ph ] ->
            let ph_label = Cfg.label cfg ph in
            let hoisted = ref [] in
            let invariant (i : Linstr.t) =
              Linstr.is_pure i
              && speculatable i
              && (match i.op with Phi _ -> false | _ -> true)
              && List.for_all
                   (fun v ->
                     match v with
                     | Lvalue.Reg (n, _) -> not (Sym.Tbl.mem inside_defs n)
                     | _ -> true)
                   (operands i)
            in
            (* iterate: hoisting one instruction may unlock its users *)
            let rec sweep () =
              let moved = ref false in
              List.iter
                (fun lbl ->
                  let bi = Sym.Tbl.find label_index lbl in
                  let b = blocks.(bi) in
                  let keep, move =
                    List.partition
                      (fun (i : Linstr.t) ->
                        if invariant i && not (Sym.is_empty i.result) then begin
                          Sym.Tbl.remove inside_defs i.result;
                          false
                        end
                        else true)
                      b.insts
                  in
                  if move <> [] then begin
                    moved := true;
                    changed := true;
                    hoisted := !hoisted @ move;
                    blocks.(bi) <- { b with insts = keep }
                  end)
                body_labels;
              if !moved then sweep ()
            in
            sweep ();
            if !hoisted <> [] then begin
              let phi = Sym.Tbl.find label_index ph_label in
              let phb = blocks.(phi) in
              let insts =
                match List.rev phb.insts with
                | term :: restrev -> List.rev restrev @ !hoisted @ [ term ]
                | [] -> !hoisted
              in
              blocks.(phi) <- { phb with insts }
            end
        | _ -> ())
      order;
    if !changed then { f with blocks = Array.to_list blocks } else f
  end
