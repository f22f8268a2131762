(** Textual output of the multi-level IR.

    Two forms are produced:
    - the {b generic} form ([~generic:true]), fully parenthesized and
      round-trippable through {!Parser};
    - the {b pretty} form (default), which renders the structured ops
      ([affine.for], [affine.load], [scf.if], ...) with MLIR-like
      custom syntax for human consumption. *)

open Ir

let vname (v : value) = "%" ^ string_of_int v.id

let vlist vs = String.concat ", " (List.map vname vs)

let tylist tys = String.concat ", " (List.map Types.to_string tys)

(** Round-trippable decimal float literal — the shared shortest form,
    so MHIR text, LLVM IR and emitted C++ agree on every literal. *)
let float_lit = Support.Float_lit.to_string

let attr_to_string (a : Attr.t) =
  let rec go = function
    | Attr.Int i -> string_of_int i
    | Attr.Float f -> float_lit f
    | Attr.Bool b -> string_of_bool b
    | Attr.Str s -> Printf.sprintf "%S" s
    | Attr.Type t -> Printf.sprintf "type(%s)" (Types.to_string t)
    | Attr.Map m -> Affine_map.to_string m
    | Attr.List l -> "[" ^ String.concat ", " (List.map go l) ^ "]"
  in
  go a

let attrs_to_string = function
  | [] -> ""
  | attrs ->
      " {"
      ^ String.concat ", "
          (List.map (fun (k, v) -> k ^ " = " ^ attr_to_string v) attrs)
      ^ "}"

let rec generic_op buf indent (o : op) =
  let pad = String.make indent ' ' in
  Buffer.add_string buf pad;
  if o.results <> [] then Buffer.add_string buf (vlist o.results ^ " = ");
  Buffer.add_string buf (Printf.sprintf "%S" o.name);
  Buffer.add_string buf ("(" ^ vlist o.operands ^ ")");
  Buffer.add_string buf (attrs_to_string o.attrs);
  if o.regions <> [] then begin
    Buffer.add_string buf " (";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ", ";
        generic_region buf indent r)
      o.regions;
    Buffer.add_string buf ")"
  end;
  Buffer.add_string buf
    (Printf.sprintf " : (%s) -> (%s)\n"
       (tylist (List.map (fun v -> v.ty) o.operands))
       (tylist (List.map (fun v -> v.ty) o.results)))

and generic_region buf indent (r : region) =
  Buffer.add_string buf "{\n";
  List.iter
    (fun b ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf pad;
      Buffer.add_string buf "^bb(";
      Buffer.add_string buf
        (String.concat ", "
           (List.map
              (fun v -> vname v ^ ": " ^ Types.to_string v.ty)
              b.params));
      Buffer.add_string buf "):\n";
      List.iter (generic_op buf (indent + 4)) b.ops)
    r.blocks;
  Buffer.add_string buf (String.make indent ' ' ^ "}")

(* ------------------------------------------------------------------ *)
(* Pretty form                                                        *)
(* ------------------------------------------------------------------ *)

let rec pretty_op buf indent (o : op) =
  let pad = String.make indent ' ' in
  let line s = Buffer.add_string buf (pad ^ s ^ "\n") in
  let res_prefix = if o.results = [] then "" else vlist o.results ^ " = " in
  match o.name with
  | "arith.constant" ->
      let v = Attr.find_exn o.attrs "value" in
      let ty = (List.hd o.results).ty in
      line
        (Printf.sprintf "%sarith.constant %s : %s" res_prefix
           (match v with
           | Attr.Int i -> string_of_int i
           | Attr.Float f -> Printf.sprintf "%g" f
           | a -> Attr.to_string a)
           (Types.to_string ty))
  | "affine.for" ->
      let lb = Attr.as_map (Attr.find_exn o.attrs "lower_map") in
      let ub = Attr.as_map (Attr.find_exn o.attrs "upper_map") in
      let step = Attr.as_int (Attr.find_exn o.attrs "step") in
      let blk = entry_block (List.hd o.regions) in
      let iv, iter_params =
        match blk.params with
        | iv :: rest -> (iv, rest)
        | [] -> invalid_arg "pretty_op: affine.for without induction variable"
      in
      let iter_str =
        if o.operands = [] then ""
        else
          Printf.sprintf " iter_args(%s = %s)"
            (vlist iter_params) (vlist o.operands)
      in
      let bound m =
        match Affine_map.as_constant m with
        | Some c -> string_of_int c
        | None -> Affine_map.to_string m
      in
      let step_str = if step = 1 then "" else Printf.sprintf " step %d" step in
      let dir_attrs =
        List.filter
          (fun (k, _) ->
            String.length k > 4 && String.starts_with ~prefix:"hls." k)
          o.attrs
      in
      line
        (Printf.sprintf "%saffine.for %s = %s to %s%s%s%s {" res_prefix
           (vname iv) (bound lb) (bound ub) step_str iter_str
           (attrs_to_string dir_attrs));
      List.iter (pretty_op buf (indent + 2)) blk.ops;
      line "}"
  | "affine.load" | "memref.load" ->
      let mem, idxs =
        match o.operands with
        | m :: rest -> (m, rest)
        | [] -> invalid_arg "pretty_op: load without operands"
      in
      let subs =
        match Attr.find o.attrs "map" with
        | Some (Attr.Map m) when not (Affine_map.equal m (Affine_map.identity (List.length idxs))) ->
            Printf.sprintf "[%s] via %s" (vlist idxs) (Affine_map.to_string m)
        | _ -> Printf.sprintf "[%s]" (vlist idxs)
      in
      line
        (Printf.sprintf "%s%s %s%s : %s" res_prefix o.name (vname mem) subs
           (Types.to_string mem.ty))
  | "affine.store" | "memref.store" ->
      let v, mem, idxs =
        match o.operands with
        | v :: m :: rest -> (v, m, rest)
        | _ -> invalid_arg "pretty_op: store without operands"
      in
      line
        (Printf.sprintf "%s %s, %s[%s] : %s" o.name (vname v) (vname mem)
           (vlist idxs) (Types.to_string mem.ty))
  | "scf.if" ->
      let then_r = List.nth o.regions 0 and else_r = List.nth o.regions 1 in
      line
        (Printf.sprintf "%sscf.if %s {" res_prefix
           (vname (List.hd o.operands)));
      List.iter (pretty_op buf (indent + 2)) (entry_block then_r).ops;
      if (entry_block else_r).ops <> [] then begin
        line "} else {";
        List.iter (pretty_op buf (indent + 2)) (entry_block else_r).ops
      end;
      line "}"
  | "scf.for" ->
      let lb, ub, step, iters =
        match o.operands with
        | lb :: ub :: step :: rest -> (lb, ub, step, rest)
        | _ -> invalid_arg "pretty_op: scf.for operands"
      in
      let blk = entry_block (List.hd o.regions) in
      let iv = List.hd blk.params and iter_params = List.tl blk.params in
      let iter_str =
        if iters = [] then ""
        else
          Printf.sprintf " iter_args(%s = %s)" (vlist iter_params) (vlist iters)
      in
      line
        (Printf.sprintf "%sscf.for %s = %s to %s step %s%s {" res_prefix
           (vname iv) (vname lb) (vname ub) (vname step) iter_str);
      List.iter (pretty_op buf (indent + 2)) blk.ops;
      line "}"
  | _ ->
      let ty_suffix =
        match o.results with
        | [] -> ""
        | rs -> " : " ^ tylist (List.map (fun v -> v.ty) rs)
      in
      line
        (Printf.sprintf "%s%s %s%s%s" res_prefix o.name (vlist o.operands)
           (attrs_to_string o.attrs) ty_suffix)

let func_to_string ?(generic = false) (f : func) =
  let buf = Buffer.create 1024 in
  let args =
    String.concat ", "
      (List.map (fun v -> vname v ^ ": " ^ Types.to_string v.ty) f.args)
  in
  Buffer.add_string buf
    (Printf.sprintf "func.func @%s(%s) -> (%s)%s {\n" f.fname args
       (tylist f.ret_tys)
       (match f.fattrs with
       | [] -> ""
       | a -> " attributes" ^ attrs_to_string a));
  let blk = entry_block f.body in
  if generic then List.iter (generic_op buf 2) blk.ops
  else List.iter (pretty_op buf 2) blk.ops;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let module_to_string ?(generic = false) (m : modul) =
  "module {\n"
  ^ String.concat "\n" (List.map (func_to_string ~generic) m.funcs)
  ^ "}\n"
