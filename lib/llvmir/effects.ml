(** Per-function read/write effect summaries over parameters and
    globals, closed transitively over the call graph.  See the
    interface for the contract. *)

open Linstr
module Sym = Support.Interner

type mode = No_access | Read | Write | Read_write

let mode_join a b =
  match (a, b) with
  | No_access, m | m, No_access -> m
  | Read, Read -> Read
  | Write, Write -> Write
  | _ -> Read_write

let mode_to_string = function
  | No_access -> "none"
  | Read -> "read"
  | Write -> "write"
  | Read_write -> "readwrite"

let reads = function Read | Read_write -> true | _ -> false
let writes = function Write | Read_write -> true | _ -> false

type footprint = {
  fp_params : mode array;
  fp_globals : mode Sym.Map.t;
  fp_unknown : string list;
}

let closed fp = fp.fp_unknown = []

let global_mode fp g =
  Option.value ~default:No_access (Sym.Map.find_opt g fp.fp_globals)

type t = { by_func : (string * footprint) list (* module order *) }

(* The marker/intrinsic families the adaptor emits and the lowering
   uses are pure annotations: they read no memory the design owns.
   (Same name families as Adaptor_markers.is_marker; duplicated here
   because llvmir sits below the adaptor layer.) *)
let is_inert_callee name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "_ssdm_op_"; "llvm."; "__mhls_" ]

let empty_fp nparams =
  { fp_params = Array.make nparams No_access; fp_globals = Sym.Map.empty;
    fp_unknown = [] }

let fp_equal a b =
  a.fp_params = b.fp_params
  && Sym.Map.equal ( = ) a.fp_globals b.fp_globals
  && a.fp_unknown = b.fp_unknown

let is_pointer (v : Lvalue.t) =
  match Lvalue.type_of v with Ltype.Ptr _ -> true | _ -> false

(** One scan of [f] under the current callee summaries.  Monotone in
    [summaries], so iterating to a fixpoint is sound.  [idx] must be
    [f]'s index — the caller builds it once and reuses it across
    re-scans. *)
let scan (globals : Sym.Set.t) (summaries : (string, footprint) Hashtbl.t)
    (idx : Findex.t) (f : Lmodule.func) : footprint =
  let params = Array.make (List.length f.Lmodule.params) No_access in
  let gmap = ref Sym.Map.empty in
  let unknown = ref [] in
  let add_unknown why = unknown := why :: !unknown in
  let join_global g m =
    gmap :=
      Sym.Map.update g
        (function None -> Some m | Some m0 -> Some (mode_join m0 m))
        !gmap
  in
  let touch md v =
    match Alias.root_of ~globals idx v with
    | Some (_, Alias.Rparam i) -> params.(i) <- mode_join params.(i) md
    | Some (g, Alias.Rglobal) -> join_global g md
    | Some (_, Alias.Ralloca) -> ()  (* local storage: not a footprint *)
    | Some (_, Alias.Runknown) | None -> add_unknown "<indirect>"
  in
  Lmodule.iter_insts
    (fun (i : Linstr.t) ->
      match i.op with
      | Load (_, p) -> touch Read p
      | Store (v, p) ->
          touch Write p;
          (* a pointer value written to memory escapes attribution *)
          if is_pointer v then (
            match Alias.root_of ~globals idx v with
            | Some (_, (Alias.Rparam _ | Alias.Rglobal | Alias.Runknown)) ->
                add_unknown "<escape>"
            | Some (_, Alias.Ralloca) | None -> ())
      | Call { callee; args; _ } ->
          if is_inert_callee callee then ()
          else (
            match Hashtbl.find_opt summaries callee with
            | None -> add_unknown callee  (* extern / declaration *)
            | Some cf ->
                gmap :=
                  Sym.Map.union
                    (fun _ a b -> Some (mode_join a b))
                    !gmap cf.fp_globals;
                unknown := cf.fp_unknown @ !unknown;
                List.iteri
                  (fun k arg ->
                    let md =
                      if k < Array.length cf.fp_params then cf.fp_params.(k)
                      else No_access
                    in
                    if md <> No_access then touch md arg)
                  args)
      | _ -> ())
    f;
  {
    fp_params = params;
    fp_globals = !gmap;
    fp_unknown = List.sort_uniq compare !unknown;
  }

let summarize ?(findex = Findex.build) (m : Lmodule.t) : t =
  let globals =
    List.fold_left
      (fun s (g : Lmodule.global) -> Sym.Set.add (Sym.intern g.Lmodule.gname) s)
      Sym.Set.empty m.Lmodule.globals
  in
  let tbl : (string, footprint) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Lmodule.func) ->
      Hashtbl.replace tbl f.Lmodule.fname
        (empty_fp (List.length f.Lmodule.params)))
    m.Lmodule.funcs;
  (* Worklist iteration to the least fixpoint: every quantity only
     grows and the lattice is finite (modes per slot, reasons drawn
     from callee names plus two sentinels), so this terminates — and
     the fixpoint is unique, so the scan order does not matter.  Each
     function's index is built once and reused across re-scans, and a
     function is re-scanned only when a callee's summary grew: a
     module with no internal calls settles in exactly one scan per
     function instead of a no-change confirmation sweep over
     everything. *)
  let func_of : (string, Lmodule.func) Hashtbl.t = Hashtbl.create 16 in
  let idx_of : (string, Findex.t) Hashtbl.t = Hashtbl.create 16 in
  let callers : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Lmodule.func) ->
      Hashtbl.replace func_of f.Lmodule.fname f;
      Hashtbl.replace idx_of f.Lmodule.fname (findex f);
      Lmodule.iter_insts
        (fun (i : Linstr.t) ->
          match i.op with
          | Call { callee; _ } when Hashtbl.mem tbl callee ->
              let cs =
                Option.value ~default:[] (Hashtbl.find_opt callers callee)
              in
              if not (List.mem f.Lmodule.fname cs) then
                Hashtbl.replace callers callee (f.Lmodule.fname :: cs)
          | _ -> ())
        f)
    m.Lmodule.funcs;
  let queue = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let enqueue fn =
    if not (Hashtbl.mem queued fn) then begin
      Hashtbl.replace queued fn ();
      Queue.push fn queue
    end
  in
  List.iter (fun (f : Lmodule.func) -> enqueue f.Lmodule.fname) m.Lmodule.funcs;
  while not (Queue.is_empty queue) do
    let fn = Queue.pop queue in
    Hashtbl.remove queued fn;
    let f = Hashtbl.find func_of fn in
    let fp = scan globals tbl (Hashtbl.find idx_of fn) f in
    if not (fp_equal fp (Hashtbl.find tbl fn)) then begin
      Hashtbl.replace tbl fn fp;
      List.iter enqueue
        (Option.value ~default:[] (Hashtbl.find_opt callers fn))
    end
  done;
  {
    by_func =
      List.map
        (fun (f : Lmodule.func) ->
          (f.Lmodule.fname, Hashtbl.find tbl f.Lmodule.fname))
        m.Lmodule.funcs;
  }

let footprint (t : t) (fname : string) : footprint option =
  List.assoc_opt fname t.by_func

let footprint_to_string (f : Lmodule.func) (fp : footprint) : string =
  let param_strs =
    List.concat
      (List.mapi
         (fun i (p : Lmodule.param) ->
           if fp.fp_params.(i) = No_access then []
           else
             [ Printf.sprintf "%s:%s" p.Lmodule.pname
                 (mode_to_string fp.fp_params.(i)) ])
         f.Lmodule.params)
  in
  let global_strs =
    Sym.Map.bindings fp.fp_globals
    |> List.sort (fun (a, _) (b, _) -> Sym.compare_name a b)
    |> List.map (fun (g, md) ->
           Printf.sprintf "%s:%s" (Sym.name g) (mode_to_string md))
  in
  Printf.sprintf "%s: params [%s] globals [%s] unknown [%s]" f.Lmodule.fname
    (String.concat " " param_strs)
    (String.concat " " global_strs)
    (String.concat " " fp.fp_unknown)

let to_string (m : Lmodule.t) (t : t) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun (f : Lmodule.func) ->
      match footprint t f.Lmodule.fname with
      | Some fp ->
          Buffer.add_string b (footprint_to_string f fp);
          Buffer.add_char b '\n'
      | None -> ())
    m.Lmodule.funcs;
  Buffer.contents b
