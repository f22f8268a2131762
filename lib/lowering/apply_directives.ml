(** The one writer of HLS directives into direct-IR LLVM IR.

    {!Lower.directive_free} lowers without directives: each loop's
    latch branch carries a module-unique loop id instead
    ([!md{llvm.loop = n}], after LLVM's distinct [!llvm.loop] nodes),
    and functions carry no attributes.  [run m lm] reads the directives
    from [m], the mhir module that was lowered, and writes them into
    [lm]:
    - loop id [n] becomes the [llvm.loop.*] keys of the [n]-th loop of
      [m] in lowering order (functions in module order, each one's ops
      in pre-order), on every latch that carries it: the cleanup's
      inliner copies a callee's loops, ids included, into its callers;
    - each function's [hls.*] attributes (the array-partition
      directives) become its LLVM function attributes.

    No pass of the cleanup pipeline reads loop metadata or function
    attributes, so [run] after the cleanup prints the same bytes as the
    cleanup after {!Lower.lower_module}, and every design point of a
    kernel shares one directive-free cleanup output. *)

open Mhir
module Linstr = Llvmir.Linstr
module Lmodule = Llvmir.Lmodule

(** The latch metadata key that carries a loop id. *)
let loop_id = "llvm.loop"

(** An [affine.for] with constant bounds carries its trip count as one
    more directive. *)
let tripcount (o : Ir.op) =
  let find = Attr.find o.Ir.attrs in
  match (o.Ir.name, find "lower_map", find "upper_map", find "step") with
  | "affine.for", Some (Attr.Map lb), Some (Attr.Map ub), Some (Attr.Int step)
    -> (
      match (Affine_map.as_constant lb, Affine_map.as_constant ub) with
      | Some l, Some u ->
          [ ("hls.tripcount", Attr.Int (max 0 ((u - l + step - 1) / step))) ]
      | _ -> [])
  | _ -> []

(** The latch keys of one loop op, last directive first. *)
let latch_md (o : Ir.op) : (string * Linstr.meta) list =
  List.fold_left
    (fun md (k, a) ->
      match (k, a) with
      | "hls.pipeline", Attr.Int ii ->
          ("llvm.loop.pipeline.enable", Linstr.MInt 1)
          :: ("llvm.loop.pipeline.ii", Linstr.MInt ii) :: md
      | "hls.pipeline", Attr.Bool true ->
          ("llvm.loop.pipeline.enable", Linstr.MInt 1) :: md
      | "hls.unroll", Attr.Int f -> ("llvm.loop.unroll.count", Linstr.MInt f) :: md
      | "hls.unroll", Attr.Bool true ->
          ("llvm.loop.unroll.full", Linstr.MInt 1) :: md
      | "hls.tripcount", Attr.Int t -> ("llvm.loop.tripcount", Linstr.MInt t) :: md
      | _ -> md)
    [] (o.Ir.attrs @ tripcount o)

(** Latch keys by loop id. *)
let loop_mds (m : Ir.modul) : (string * Linstr.meta) list array =
  let mds = ref [] in
  List.iter
    (Ir.walk_func (fun o ->
         match o.Ir.name with
         | "affine.for" | "scf.for" -> mds := latch_md o :: !mds
         | _ -> ()))
    m.Ir.funcs;
  Array.of_list (List.rev !mds)

(** A function's [hls.*] attributes; a string attribute passes through
    unquoted (e.g. ["cyclic:4:2"]). *)
let func_attrs (f : Ir.func) : (string * string) list =
  List.filter_map
    (fun (k, a) ->
      if String.starts_with ~prefix:"hls." k then
        Some (k, match a with Attr.Str s -> s | a -> Attr.to_string a)
      else None)
    f.Ir.fattrs

(** Write [m]'s directives into [lm], which {!Lower.directive_free}
    lowered from [m] (and a pipeline may have cleaned up since).  A
    loop id that names no loop of [m] is a compile error. *)
let run (m : Ir.modul) (lm : Lmodule.t) : Lmodule.t =
  let mds = loop_mds m in
  let meta kv =
    match kv with
    | k, Linstr.MInt n when k = loop_id ->
        if n < 0 || n >= Array.length mds then
          Support.Err.fail ~pass:"apply-directives" "loop id %d names no loop" n
        else mds.(n)
    | kv -> [ kv ]
  in
  let inst (i : Linstr.t) =
    if i.Linstr.imeta = [] then i
    else { i with Linstr.imeta = List.concat_map meta i.Linstr.imeta }
  in
  let block (b : Lmodule.block) =
    if List.for_all (fun (i : Linstr.t) -> i.Linstr.imeta = []) b.Lmodule.insts
    then b
    else { b with insts = List.map inst b.insts }
  in
  let func (f : Lmodule.func) =
    let blocks = List.map block f.Lmodule.blocks in
    let fattrs =
      match Ir.find_func m f.Lmodule.fname with
      | Some mf -> func_attrs mf
      | None -> f.Lmodule.fattrs
    in
    (* an unchanged function keeps the physical identity the analysis
       caches key on *)
    if List.for_all2 ( == ) blocks f.Lmodule.blocks && fattrs = f.Lmodule.fattrs
    then f
    else { f with Lmodule.blocks; fattrs }
  in
  { lm with Lmodule.funcs = List.map func lm.Lmodule.funcs }
