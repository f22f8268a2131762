(** LLVM-style analysis manager.

    Each function-level analysis ({!Findex}, {!Cfg}, {!Dominance},
    {!Loop_info}) is computed at most once per (function, version):
    passes query the manager instead of building their own tables, and
    {!Pass.run_pipeline} tells the manager after every pass which
    analyses that pass {e preserves}.  Preserved analyses are rebased
    onto the rewritten function value and survive to the next pass; the
    rest are dropped.

    Soundness does not rest on the preserve declarations alone: a
    cached analysis is returned only when the function value it was
    computed for (or rebased onto) is {e physically} the value being
    queried.  A pass that rewrites a function mid-run therefore always
    gets fresh analyses for the rewritten value, and a wrong preserve
    set can only surface through the rebase step itself — which is
    exactly the contract documented on {!Cfg.rebase}.

    Every query reports one {!Support.Tracing} event with stage
    ["analysis"] and pass ["<kind>:hit"] or ["<kind>:compute"], so
    traces show analysis reuse directly. *)

module Sym = Support.Interner

type kind = Findex | Cfg | Dominance | Loop_info | Effects

let kind_name = function
  | Findex -> "findex"
  | Cfg -> "cfg"
  | Dominance -> "dominance"
  | Loop_info -> "loop_info"
  | Effects -> "effects"

type entry = {
  mutable e_func : Lmodule.func;  (** the value the caches are valid for *)
  mutable e_findex : Findex.t option;
  mutable e_cfg : Cfg.t option;
  mutable e_dom : Dominance.t option;
  mutable e_li : Loop_info.t option;
  mutable e_vok : bool;
      (** the verifier accepted exactly this function value *)
}

type t = {
  cache : entry Sym.Tbl.t;
  mutable m_effects : (Lmodule.t * Effects.t) option;
      (** module-level effect summary, valid for exactly that module value *)
  mutable m_sigs : (string * Ltype.t list * Ltype.t) list option;
      (** callable-signature environment the verifier last ran under
          (functions and declarations, in module order) *)
  trace : Support.Tracing.hook;
}

let create ?(trace = Support.Tracing.null) () : t =
  {
    cache = Sym.Tbl.create 16;
    m_effects = None;
    m_sigs = None;
    trace;
  }

let fresh_entry f =
  {
    e_func = f;
    e_findex = None;
    e_cfg = None;
    e_dom = None;
    e_li = None;
    e_vok = false;
  }

(** Entry valid for exactly this function value; reset on mismatch. *)
let entry_for (am : t) (f : Lmodule.func) : entry =
  let key = Sym.intern f.Lmodule.fname in
  match Sym.Tbl.find_opt am.cache key with
  | Some e ->
      if e.e_func != f then begin
        e.e_func <- f;
        e.e_findex <- None;
        e.e_cfg <- None;
        e.e_dom <- None;
        e.e_li <- None;
        e.e_vok <- false
      end;
      e
  | None ->
      let e = fresh_entry f in
      Sym.Tbl.replace am.cache key e;
      e

let report (am : t) (k : kind) ~(hit : bool) ~seconds (f : Lmodule.func) =
  let n =
    List.fold_left
      (fun acc (b : Lmodule.block) -> acc + List.length b.insts)
      0 f.Lmodule.blocks
  in
  am.trace
    (Support.Tracing.event ~stage:"analysis"
       ~pass:(kind_name k ^ if hit then ":hit" else ":compute")
       ~seconds ~before:n ~after:n)

let query (am : t) (k : kind) (f : Lmodule.func) ~(get : entry -> 'a option)
    ~(set : entry -> 'a -> unit) ~(compute : unit -> 'a) : 'a =
  let e = entry_for am f in
  (* the clock reads and event allocation are measurable on hot paths,
     so skip them entirely under the null hook *)
  let traced = am.trace != Support.Tracing.null in
  match get e with
  | Some v ->
      if traced then report am k ~hit:true ~seconds:0.0 f;
      v
  | None ->
      if traced then begin
        let t0 = Support.Tracing.now () in
        let v = compute () in
        set e v;
        report am k ~hit:false ~seconds:(Support.Tracing.now () -. t0) f;
        v
      end
      else begin
        let v = compute () in
        set e v;
        v
      end

let cfg ~(am : t) (f : Lmodule.func) : Cfg.t =
  query am Cfg f
    ~get:(fun e -> e.e_cfg)
    ~set:(fun e v -> e.e_cfg <- Some v)
    ~compute:(fun () -> Cfg.build f)

let dominance ~(am : t) (f : Lmodule.func) : Dominance.t =
  query am Dominance f
    ~get:(fun e -> e.e_dom)
    ~set:(fun e v -> e.e_dom <- Some v)
    ~compute:(fun () -> Dominance.compute (cfg ~am f))

let findex ~(am : t) (f : Lmodule.func) : Findex.t =
  query am Findex f
    ~get:(fun e -> e.e_findex)
    ~set:(fun e v -> e.e_findex <- Some v)
    ~compute:(fun () -> Findex.build f)

let loop_info ~(am : t) (f : Lmodule.func) : Loop_info.t =
  query am Loop_info f
    ~get:(fun e -> e.e_li)
    ~set:(fun e v -> e.e_li <- Some v)
    ~compute:(fun () -> Loop_info.compute (dominance ~am f))

let module_report (am : t) ~(hit : bool) ~seconds (m : Lmodule.t) =
  let n = Lmodule.instr_count m in
  am.trace
    (Support.Tracing.event ~stage:"analysis"
       ~pass:(kind_name Effects ^ if hit then ":hit" else ":compute")
       ~seconds ~before:n ~after:n)

(** Module-level effect summary, cached for exactly this module value
    (same physical-equality soundness guard as the per-function
    entries). *)
let effects ~(am : t) (m : Lmodule.t) : Effects.t =
  match am.m_effects with
  | Some (m0, e) when m0 == m ->
      if am.trace != Support.Tracing.null then
        module_report am ~hit:true ~seconds:0.0 m;
      e
  | _ ->
      let traced = am.trace != Support.Tracing.null in
      let t0 = if traced then Support.Tracing.now () else 0.0 in
      let e = Effects.summarize ~findex:(findex ~am) m in
      am.m_effects <- Some (m, e);
      if traced then
        module_report am ~hit:false ~seconds:(Support.Tracing.now () -. t0) m;
      e

(* Move [e] onto [f], a rewrite of its function: the analyses in
   [preserves] are rebased, the rest dropped. *)
let rebase_entry e ~preserves (f : Lmodule.func) =
  let keep_k k = List.mem k preserves in
  e.e_findex <-
    (if keep_k Findex then Option.map (fun x -> Findex.rebase x f) e.e_findex
     else None);
  e.e_cfg <-
    (if keep_k Cfg then Option.map (fun x -> Cfg.rebase x f) e.e_cfg else None);
  e.e_dom <-
    (if keep_k Dominance then Option.map (fun x -> Dominance.rebase x f) e.e_dom
     else None);
  e.e_li <-
    (if keep_k Loop_info then Option.map (fun x -> Loop_info.rebase x f) e.e_li
     else None);
  e.e_vok <- false;
  e.e_func <- f

(** After a pass produced [m], keep only the analyses it [preserves]
    (rebased onto the new function values) plus everything cached for
    functions the pass left physically untouched; drop the rest and
    any entries for functions that no longer exist. *)
let keep (am : t) ~(preserves : kind list) (m : Lmodule.t) : unit =
  (* Effect summaries over-approximate, and every effect a pass can
     leave behind was already in the pre-pass summary (passes only
     remove, merge or move accesses; inline substitutes bodies whose
     effects the transitively-closed caller summary already contains).
     Preserving therefore re-points the cached summary at the new
     module value; dropping recomputes on next query. *)
  (match am.m_effects with
  | Some (_, e) when List.mem Effects preserves -> am.m_effects <- Some (m, e)
  | Some _ -> am.m_effects <- None
  | None -> ());
  let live = Sym.Tbl.create 16 in
  List.iter
    (fun (f : Lmodule.func) ->
      let key = Sym.intern f.Lmodule.fname in
      Sym.Tbl.replace live key ();
      match Sym.Tbl.find_opt am.cache key with
      | None -> ()
      | Some e when e.e_func == f -> ()  (* untouched: everything valid *)
      | Some e -> rebase_entry e ~preserves f)
    m.Lmodule.funcs;
  Sym.Tbl.iter
    (fun key _ -> if not (Sym.Tbl.mem live key) then Sym.Tbl.remove am.cache key)
    (Sym.Tbl.copy am.cache)

(** Mid-pass, before a query on [f]: [f] rewrites the cached function of
    its name inside its block skeleton, so the CFG-shaped analyses
    follow it, where the query would drop them. *)
let rewritten (am : t) (f : Lmodule.func) : unit =
  match Sym.Tbl.find_opt am.cache (Sym.intern f.Lmodule.fname) with
  | Some e when e.e_func != f ->
      rebase_entry e ~preserves:[ Cfg; Dominance; Loop_info ] f
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Incremental verification support                                    *)

let verified (am : t) (f : Lmodule.func) : bool = (entry_for am f).e_vok
let mark_verified (am : t) (f : Lmodule.func) : unit =
  (entry_for am f).e_vok <- true

let note_signatures (am : t) (m : Lmodule.t) : bool =
  let sigs =
    List.map
      (fun (f : Lmodule.func) ->
        ( f.Lmodule.fname,
          List.map (fun (p : Lmodule.param) -> p.Lmodule.pty) f.Lmodule.params,
          f.Lmodule.ret_ty ))
      m.Lmodule.funcs
    @ List.map
        (fun (d : Lmodule.decl) ->
          (d.Lmodule.dname, d.Lmodule.dargs, d.Lmodule.dret))
        m.Lmodule.decls
  in
  let changed =
    match am.m_sigs with Some prev -> prev <> sigs | None -> true
  in
  am.m_sigs <- Some sigs;
  changed
