(** Pareto archive over integer minimization objectives.

    The archive is an antichain under {!dominates}: inserting a point
    drops every archived point it dominates and is itself dropped when
    an archived point dominates it.  Ties (equal objective vectors)
    coexist — the frontier keeps every non-dominated label.

    Determinism: the archive is a pure value, {!insert} folds are
    order-independent up to the final frontier {e set}, and
    {!frontier} sorts by entry key, so any evaluation order yields a
    byte-identical rendering. *)

type objectives = int array

(** [dominates a b]: [a] is no worse on every axis and strictly better
    on at least one.  Irreflexive and antisymmetric by construction. *)
let dominates (a : objectives) (b : objectives) : bool =
  let n = Array.length a in
  if n <> Array.length b then
    invalid_arg "Pareto.dominates: dimension mismatch";
  let le = ref true and lt = ref false in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then le := false;
    if a.(i) < b.(i) then lt := true
  done;
  !le && !lt

type 'a entry = {
  e_key : string;  (** unique stable identity (canonical config label) *)
  e_obj : objectives;
  e_payload : 'a;
}

let entry ~key ~obj payload = { e_key = key; e_obj = obj; e_payload = payload }

type 'a t = { entries : 'a entry list (* unordered antichain *) }

let empty : 'a t = { entries = [] }
let size (t : 'a t) = List.length t.entries

(** [insert t e] returns the updated archive and whether the frontier
    changed.  A duplicate key is a no-op (the archive never holds two
    entries with the same key), and so is an exact objective tie with
    an archived entry — the first-inserted representative survives,
    which is deterministic because the search feeds candidates in
    canonical order. *)
let insert (t : 'a t) (e : 'a entry) : 'a t * bool =
  if
    List.exists
      (fun x -> x.e_key = e.e_key || x.e_obj = e.e_obj) t.entries
  then (t, false)
  else if List.exists (fun x -> dominates x.e_obj e.e_obj) t.entries then
    (t, false)
  else
    let survivors =
      List.filter (fun x -> not (dominates e.e_obj x.e_obj)) t.entries
    in
    ({ entries = e :: survivors }, true)

let insert_all (t : 'a t) (es : 'a entry list) : 'a t * bool =
  List.fold_left
    (fun (t, changed) e ->
      let t, c = insert t e in
      (t, changed || c))
    (t, false) es

(** The frontier, sorted by entry key — a deterministic antichain. *)
let frontier (t : 'a t) : 'a entry list =
  List.sort (fun a b -> compare a.e_key b.e_key) t.entries

(** True when no entry dominates another (internal invariant; exposed
    for the law tests). *)
let is_antichain (es : 'a entry list) : bool =
  List.for_all
    (fun a ->
      List.for_all
        (fun b -> a.e_key = b.e_key || not (dominates a.e_obj b.e_obj))
        es)
    es
