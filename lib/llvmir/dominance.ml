(** Dominator tree and dominance frontiers via the Cooper–Harvey–Kennedy
    iterative algorithm.  Drives mem2reg's phi placement and the SSA
    verifier's dominance checks. *)

type t = {
  cfg : Cfg.t;
  idom : int array;  (** immediate dominator; [idom.(entry) = entry];
                         [-1] for unreachable blocks *)
  children : int list array;  (** dominator-tree children *)
}

let compute (cfg : Cfg.t) : t =
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let rpo_number = Array.make n (-1) in
  List.iteri (fun k i -> rpo_number.(i) <- k) rpo;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_number.(!a) > rpo_number.(!b) do a := idom.(!a) done;
      while rpo_number.(!b) > rpo_number.(!a) do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun i ->
        if i <> 0 then begin
          let processed_preds =
            List.filter (fun p -> idom.(p) <> -1) cfg.Cfg.preds.(i)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(i) <> new_idom then begin
                idom.(i) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    if idom.(i) <> -1 then children.(idom.(i)) <- i :: children.(idom.(i))
  done;
  { cfg; idom; children }

(** Rebase a cached dominator tree onto a rewritten function value.
    Only valid when the rewrite preserved the CFG shape — the
    analysis-manager preserve contract. *)
let rebase t (f : Lmodule.func) = { t with cfg = Cfg.rebase t.cfg f }

(** [dominates t a b]: does block [a] dominate block [b]?  (Reflexive.) *)
let dominates t a b =
  let rec go b = if b = a then true else if b = 0 then false else go t.idom.(b) in
  if t.idom.(b) = -1 then false else go b

(** Dominance frontier per block (Cooper et al. fig. 5). *)
let frontiers (t : t) : int list array =
  let n = Cfg.n_blocks t.cfg in
  let df = Array.make n [] in
  for i = 0 to n - 1 do
    let preds = t.cfg.Cfg.preds.(i) in
    if List.length preds >= 2 && t.idom.(i) <> -1 then
      List.iter
        (fun p ->
          if t.idom.(p) <> -1 then begin
            let runner = ref p in
            while !runner <> t.idom.(i) do
              if not (List.mem i df.(!runner)) then
                df.(!runner) <- i :: df.(!runner);
              runner := t.idom.(!runner)
            done
          end)
        preds
  done;
  df
