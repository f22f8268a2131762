(** Function inlining.  Vitis HLS inlines the design into the top
    function before scheduling; this pass does the same so that
    multi-function kernels (helpers called from the top) synthesize as
    one data path.

    Call sites whose callee is defined in the same module are expanded
    by splitting the block at the call, splicing in a renamed clone of
    the callee's CFG, and joining returns through a phi in the
    continuation block.  Direct recursion is left alone (and will be
    rejected by the HLS front door, as in the real tool). *)

open Linstr
open Lmodule
module Sym = Support.Interner

let fail = Support.Err.fail ~pass:"llvmir.inline"

(** Inline one call to [callee] found in [f]; returns [None] when [f]
    contains no inlinable call. *)
let inline_one (m : t) (f : func) : func option =
  (* locate the first call to a module-defined function *)
  let found = ref None in
  List.iteri
    (fun bi (b : block) ->
      if !found = None then
        List.iteri
          (fun ii (i : Linstr.t) ->
            if !found = None then
              match i.op with
              | Call { callee; _ }
                when callee <> f.fname && find_func m callee <> None ->
                  found := Some (bi, ii, i)
              | _ -> ())
          b.insts)
    f.blocks;
  match !found with
  | None -> None
  | Some (bi, ii, call_inst) ->
      let callee_name, args, _ret_ty =
        match call_inst.op with
        | Call { callee; args; ret } -> (callee, args, ret)
        | _ -> assert false
      in
      let g = find_func_exn m callee_name in
      let names = namegen f in
      (* a prefix no existing label/register starts with, so every
         derived name is fresh even across repeated inlines of the
         same callee *)
      let prefix =
        let taken candidate =
          let starts = String.starts_with ~prefix:(candidate ^ ".") in
          List.exists (fun (b : block) -> starts (Sym.name b.label)) f.blocks
          || fold_insts
               (fun acc (i : Linstr.t) -> acc || starts (result_name i))
               false f
        in
        let rec pick k =
          let candidate = Printf.sprintf "inl.%s.%d" callee_name k in
          if taken candidate then pick (k + 1) else candidate
        in
        pick 0
      in
      (* value renaming: params -> args, locals -> prefixed names *)
      let vmap : Lvalue.t Sym.Tbl.t = Sym.Tbl.create 32 in
      List.iter2
        (fun (p : param) a -> Sym.Tbl.replace vmap (Sym.intern p.pname) a)
        g.params args;
      iter_insts
        (fun (i : Linstr.t) ->
          if (not (Sym.is_empty i.result)) && not (Sym.Tbl.mem vmap i.result)
          then
            Sym.Tbl.replace vmap i.result
              (Lvalue.reg (prefix ^ "." ^ result_name i) i.ty))
        g;
      let lmap : Sym.t Sym.Tbl.t = Sym.Tbl.create 8 in
      List.iter
        (fun (b : block) ->
          Sym.Tbl.replace lmap b.label
            (Sym.intern (prefix ^ "." ^ Sym.name b.label)))
        g.blocks;
      let cont_label =
        Sym.intern (Support.Namegen.fresh names (prefix ^ ".cont"))
      in
      let rename_value v =
        match v with
        | Lvalue.Reg (n, _) -> (
            match Sym.Tbl.find_opt vmap n with Some v' -> v' | None -> v)
        | _ -> v
      in
      let rename_label l =
        match Sym.Tbl.find_opt lmap l with Some l' -> l' | None -> l
      in
      (* clone callee blocks; collect return values *)
      let returns = ref [] in
      let cloned_blocks =
        List.map
          (fun (b : block) ->
            let label = rename_label b.label in
            let insts =
              List.map
                (fun (i : Linstr.t) ->
                  let i = Linstr.map_operands rename_value i in
                  let i = Linstr.map_successors rename_label i in
                  (* phi incoming labels are block references too *)
                  let i =
                    match i.op with
                    | Phi incoming ->
                        {
                          i with
                          op =
                            Phi
                              (List.map
                                 (fun (v, l) -> ((v : Lvalue.t), rename_label l))
                                 incoming);
                        }
                    | _ -> i
                  in
                  let result =
                    if Sym.is_empty i.result then i.result
                    else
                      match Sym.Tbl.find_opt vmap i.result with
                      | Some (Lvalue.Reg (n, _)) -> n
                      | _ -> i.result
                  in
                  let i = { i with result } in
                  match i.op with
                  | Ret v ->
                      (match v with
                      | Some rv -> returns := (rv, label) :: !returns
                      | None -> returns := (Lvalue.undef Ltype.Void, label) :: !returns);
                      { i with op = Br cont_label; result = Sym.empty; ty = Ltype.Void }
                  | _ -> i)
                b.insts
            in
            { label; insts })
          g.blocks
      in
      let g_entry =
        match cloned_blocks with
        | b :: _ -> b.label
        | [] -> fail "inlining an empty function @%s" callee_name
      in
      (* split the calling block *)
      let blocks =
        List.concat
          (List.mapi
             (fun bj (b : block) ->
               if bj <> bi then [ b ]
               else begin
                 let before = List.filteri (fun k _ -> k < ii) b.insts in
                 let after = List.filteri (fun k _ -> k > ii) b.insts in
                 let pre =
                   { b with insts = before @ [ Linstr.make (Br g_entry) ] }
                 in
                 let result_binding =
                   if Sym.is_empty call_inst.result then []
                   else
                     [
                       {
                         Linstr.result = call_inst.result;
                         ty = call_inst.ty;
                         op = Phi (List.rev !returns);
                         imeta = [];
                       };
                     ]
                 in
                 let cont =
                   { label = cont_label; insts = result_binding @ after }
                 in
                 (* phis in b's successors refer to b.label; after the
                    split those edges now come from cont_label *)
                 [ pre ] @ cloned_blocks @ [ cont ]
               end)
             f.blocks)
      in
      (* fix successor phis: edges that used to come from the split
         block now come from the continuation *)
      let split_label = (List.nth f.blocks bi).label in
      let term_targets =
        match List.rev (List.nth f.blocks bi).insts with
        | t :: _ -> Linstr.successors t
        | [] -> []
      in
      let blocks =
        List.map
          (fun (b : block) ->
            if not (List.mem b.label term_targets) then b
            else
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
                                   (fun (v, l) ->
                                     ((v : Lvalue.t),
                                      if l = split_label then cont_label else l))
                                   incoming);
                          }
                      | _ -> i)
                    b.insts;
              })
          blocks
      in
      Some { f with blocks }

(** Inline all calls to module-defined functions, to a fixed point
    (bounded to keep pathological recursion from diverging). *)
let run_func (m : t) (f : func) : func =
  let rec go f fuel =
    if fuel = 0 then f
    else match inline_one m f with Some f' -> go f' (fuel - 1) | None -> f
  in
  go f 64

let run (m : t) : t = { m with funcs = List.map (run_func m) m.funcs }
