(** Loop-carried memory-dependence analysis.

    For each {!Loop_info} loop this module collects the load/store
    accesses in the loop body, recovers each access's subscript
    expressions as affine forms over SSA registers (walking GEP index
    expressions through adds, constant multiplies, shifts and integer
    casts), and runs a per-dimension delta test between every pair of
    accesses with at least one store whose base regions {!Alias} cannot
    prove disjoint:

    - {b Independent} — the subscripts can never collide across
      iterations of the analyzed loop (or the roots never alias);
    - {b Intra} — they collide only within one iteration (no carried
      dependence, pipelining is unaffected);
    - {b Carried d} — iterations [d] apart touch the same element; a
      pipelined II below the recurrence latency divided by [d] is
      infeasible;
    - {b Unknown} — the analysis cannot bound the dependence (assume
      carried at distance 1 when scheduling).

    Base-region disjointness is {!Alias.base_alias}, not raw root-name
    equality: two accesses through pointers whose roots cannot be
    resolved (phi/select/call-defined) pair up as {b Unknown} instead
    of being silently treated as independent arrays.

    The affine-form machinery ({!Alias.form}) lives in {!Alias}.

    SSA registers that the walker cannot expand stay {e atomic}: an
    atom defined outside the loop is a fixed unknown (it cancels when
    both subscripts use it identically), while an atom defined inside
    the loop takes fresh values every iteration and defeats exact
    distance computation. *)

open Linstr
module Sym = Support.Interner

(* ------------------------------------------------------------------ *)
(* Accesses                                                           *)
(* ------------------------------------------------------------------ *)

type access = {
  acc_block : int;
  acc_index : int;  (** instruction index within its block *)
  acc_is_store : bool;
  acc_array : string;  (** root parameter / alloca / global *)
  acc_ptr : Lvalue.t;  (** the address operand, for alias queries *)
  acc_subs : Alias.form list option;
      (** one form per GEP index (leading pointer index included);
          [None] when the address is not a single GEP from the root
          ({!Alias.subscripts}) *)
  acc_inst : Linstr.t;
}

(** All loads/stores whose block lies in loop [j]'s body.  Every
    entry point below takes the function's index [idx] and loop nest
    [li] (whose CFG it reads) from the caller, so a job's
    {!Analysis} manager builds each once. *)
let accesses_in (idx : Findex.t) (li : Loop_info.t) (j : int) : access list =
  let cfg = li.Loop_info.cfg in
  let body = li.Loop_info.loops.(j).Loop_info.body in
  let out = ref [] in
  List.iter
    (fun b ->
      let blk = Cfg.block cfg b in
      List.iteri
        (fun ii (i : Linstr.t) ->
          let record is_store p =
            match Findex.base_pointer idx p with
            | Some root ->
                out :=
                  {
                    acc_block = b;
                    acc_index = ii;
                    acc_is_store = is_store;
                    acc_array = Sym.name root;
                    acc_ptr = p;
                    acc_subs = Alias.subscripts idx p;
                    acc_inst = i;
                  }
                  :: !out
            | None -> ()
          in
          match i.op with
          | Load (_, p) -> record false p
          | Store (_, p) -> record true p
          | _ -> ())
        blk.Lmodule.insts)
    (List.sort compare body);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The delta test                                                     *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Independent
  | Intra  (** dependence only within a single iteration *)
  | Carried of int  (** minimum positive iteration distance *)
  | Unknown

let verdict_to_string = function
  | Independent -> "independent"
  | Intra -> "intra-iteration"
  | Carried d -> Printf.sprintf "carried(distance=%d)" d
  | Unknown -> "unknown"

(** Induction variable of loop [j]: the first header phi whose
    latch-incoming value is an integer add/sub of the phi itself. *)
let iv_phi (idx : Findex.t) (li : Loop_info.t) (j : int) : Sym.t option =
  let cfg = li.Loop_info.cfg in
  let l = li.Loop_info.loops.(j) in
  let header = Cfg.block cfg l.Loop_info.header in
  let latch_labels = List.map (Cfg.label cfg) l.Loop_info.latches in
  List.find_map
    (fun (i : Linstr.t) ->
      match i.op with
      | Phi incoming -> (
          let from_latch =
            List.find_opt (fun (_, lbl) -> List.mem lbl latch_labels) incoming
          in
          match from_latch with
          | Some (Lvalue.Reg (next, _), _) -> (
              match Findex.def_instr idx next with
              | Some { op = IBin ((Add | Sub), a, b); _ }
                when Lvalue.same_reg a (Lvalue.Reg (i.result, i.ty))
                     || Lvalue.same_reg b (Lvalue.Reg (i.result, i.ty)) ->
                  Some i.result
              | _ -> None)
          | _ -> None)
      | _ -> None)
    header.Lmodule.insts

(** Per-dimension conclusion of the delta test. *)
type dim_verdict =
  | DAny  (** compatible with any iteration distance *)
  | DExact of int  (** iteration distance must equal exactly this *)
  | DIndep
  | DUnknown

(** Does atom [a] take a fresh value on each iteration of loop [j]?
    True when its definition lives inside the loop body (nested-loop
    induction variables, loads, ...); parameters and defs outside the
    loop are fixed for the loop's whole execution. *)
let varies_in_loop (li : Loop_info.t) (j : int) (idx : Findex.t) (a : Sym.t) :
    bool =
  match Findex.def idx a with
  | Some (Findex.Instr k) ->
      List.mem (Findex.block_of_instr idx k) li.Loop_info.loops.(j).Loop_info.body
  | _ -> false

let dim_test ~iv ~varies (s : Alias.form) (t : Alias.form) : dim_verdict =
  let a_s = Alias.coeff_of s iv and a_t = Alias.coeff_of t iv in
  let rest_s = Alias.drop_atom s iv and rest_t = Alias.drop_atom t iv in
  let has_varying (f : Alias.form) =
    List.exists (fun (n, _) -> varies n) f.terms
  in
  if has_varying rest_s || has_varying rest_t then
    (* fresh values every iteration: the dimension cannot pin a
       distance, but neither can it rule dependence out *)
    DAny
  else
    let delta = Alias.form_sub rest_s rest_t in
    if delta.terms <> [] then DUnknown  (* fixed but unknown offset *)
    else
      let c = delta.konst in
      if a_s <> a_t then DUnknown
      else if a_s = 0 then if c = 0 then DAny else DIndep
      else if c mod a_s <> 0 then DIndep
      else DExact (c / a_s)

(** Delta test between two accesses w.r.t. loop [j].  The base-region
    question goes through {!Alias.base_alias}: provably disjoint roots
    are independent, a shared (known) root runs the per-dimension
    delta test, and an unresolvable root pair is {!Unknown} — never
    silently independent. *)
let classify_pair (idx : Findex.t) (li : Loop_info.t) (j : int) (s : access)
    (t : access) : verdict =
  match Alias.base_alias idx s.acc_ptr t.acc_ptr with
  | Alias.No_alias -> Independent
  | Alias.May_alias -> Unknown
  | Alias.Must_alias -> (
      match iv_phi idx li j with
      | None -> Unknown
      | Some iv -> (
          match (s.acc_subs, t.acc_subs) with
          | Some subs_s, Some subs_t
            when List.length subs_s = List.length subs_t ->
              let varies = varies_in_loop li j idx in
              let dims =
                List.map2 (fun a b -> dim_test ~iv ~varies a b) subs_s subs_t
              in
              if List.mem DIndep dims then Independent
              else if List.mem DUnknown dims then Unknown
              else
                let exacts =
                  List.filter_map
                    (function DExact k -> Some k | _ -> None)
                    dims
                in
                (match List.sort_uniq compare exacts with
                | [] -> Carried 1  (* same element on every iteration *)
                | [ 0 ] -> Intra
                | [ k ] -> Carried (abs k)
                | _ -> Independent  (* contradictory distance requirements *))
          | _ -> Unknown))

(* ------------------------------------------------------------------ *)
(* Whole-loop analysis                                                *)
(* ------------------------------------------------------------------ *)

type dep = {
  dep_array : string;
  dep_src : access;  (** the store of the pair *)
  dep_dst : access;
  dep_verdict : verdict;
}

(** All dependence pairs (at least one store) whose base regions may
    overlap inside loop [j], with their verdicts.  Store/store pairs
    are included once ([src] is always a store); a store is also
    paired with itself — that is how a subscript invariant in [j]'s IV
    ("same element every iteration") surfaces as a carried output
    dependence.  Pairing is by {!Alias.base_alias}, so accesses
    through unresolvable pointers pair with everything rather than
    being dropped. *)
let analyze_loop (idx : Findex.t) (li : Loop_info.t) (j : int) : dep list =
  let accs = accesses_in idx li j in
  let deps = ref [] in
  let consider (s : access) (t : access) =
    let v = classify_pair idx li j s t in
    deps := { dep_array = s.acc_array; dep_src = s; dep_dst = t; dep_verdict = v } :: !deps
  in
  let stores = List.filter (fun a -> a.acc_is_store) accs in
  List.iter
    (fun s ->
      List.iter
        (fun t ->
          if Alias.base_alias idx s.acc_ptr t.acc_ptr <> Alias.No_alias then
            if t.acc_is_store then begin
              (* count each store/store pair once, self-pairs included *)
              if
                (t.acc_block, t.acc_index) >= (s.acc_block, s.acc_index)
              then consider s t
            end
            else consider s t)
        accs)
    stores;
  List.rev !deps

(** The loop-carried (or unboundable) subset of {!analyze_loop}. *)
let carried (deps : dep list) : dep list =
  List.filter
    (fun d -> match d.dep_verdict with Carried _ | Unknown -> true | _ -> false)
    deps
