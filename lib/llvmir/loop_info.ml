(** Natural-loop detection over the dominator tree, plus trip-count
    pattern matching for the canonical loops the lowering emits.

    The HLS backend consumes this analysis to recover the loop nest
    from the CFG (Vitis does the same on its LLVM) and to know each
    loop's trip count, II/unroll requests ([!md] on the back edge or
    [_ssdm_op_Spec*] marker calls in the header). *)

type loop = {
  header : int;
  latches : int list;  (** blocks with a back edge to [header] *)
  body : int list;  (** all blocks in the loop, including header *)
  depth : int;  (** 1 = outermost *)
  parent : int option;  (** index into the loops array *)
  children : int list;  (** indices of directly nested loops *)
}

type t = {
  cfg : Cfg.t;
  loops : loop array;
  loop_of_block : int option array;  (** innermost loop containing block *)
}

(** The loop nest of [dom]'s CFG.  Takes the dominator tree rather
    than computing one, so a caller holding the {!Analysis} manager's
    tree never builds a second. *)
let compute (dom : Dominance.t) : t =
  let cfg = dom.Dominance.cfg in
  let n = Cfg.n_blocks cfg in
  (* back edges: succ edge u -> h where h dominates u *)
  let back_edges = ref [] in
  for u = 0 to n - 1 do
    List.iter
      (fun h -> if Dominance.dominates dom h u then back_edges := (u, h) :: !back_edges)
      cfg.Cfg.succs.(u)
  done;
  (* group by header *)
  let headers =
    List.sort_uniq Int.compare (List.map snd !back_edges)
  in
  let raw_loops =
    List.map
      (fun h ->
        let latches =
          List.filter_map
            (fun (u, h') -> if h' = h then Some u else None)
            !back_edges
        in
        (* loop body: blocks reaching a latch backwards without passing h *)
        let in_loop = Array.make n false in
        in_loop.(h) <- true;
        let rec pull u =
          if not in_loop.(u) then begin
            in_loop.(u) <- true;
            List.iter pull cfg.Cfg.preds.(u)
          end
        in
        List.iter pull latches;
        let body = List.filter (Array.get in_loop) (List.init n Fun.id) in
        (h, latches, body, in_loop))
      headers
  in
  (* nesting: loop A is inside B if A's header is in B's body and A <> B *)
  let arr = Array.of_list raw_loops in
  let contains i j =
    (* loop i contains loop j *)
    let _, _, _, in_i = arr.(i) in
    let hj, _, _, _ = arr.(j) in
    i <> j && in_i.(hj)
  in
  let k = Array.length arr in
  let parent = Array.make k None in
  for j = 0 to k - 1 do
    (* innermost containing loop = the containing loop with smallest body *)
    let best = ref None in
    for i = 0 to k - 1 do
      if contains i j then
        match !best with
        | None -> best := Some i
        | Some b ->
            let _, _, body_b, _ = arr.(b) in
            let _, _, body_i, _ = arr.(i) in
            if List.length body_i < List.length body_b then best := Some i
    done;
    parent.(j) <- !best
  done;
  let depth = Array.make k 0 in
  let rec depth_of j =
    if depth.(j) > 0 then depth.(j)
    else begin
      let d = match parent.(j) with None -> 1 | Some p -> depth_of p + 1 in
      depth.(j) <- d;
      d
    end
  in
  for j = 0 to k - 1 do ignore (depth_of j) done;
  let children = Array.make k [] in
  for j = k - 1 downto 0 do
    match parent.(j) with
    | Some p -> children.(p) <- j :: children.(p)
    | None -> ()
  done;
  let loops =
    Array.init k (fun j ->
        let header, latches, body, _ = arr.(j) in
        {
          header;
          latches;
          body;
          depth = depth.(j);
          parent = parent.(j);
          children = children.(j);
        })
  in
  let loop_of_block = Array.make n None in
  (* innermost loop per block: deepest loop whose body contains it (the
     first of the deepest) *)
  Array.iteri
    (fun j l ->
      List.iter
        (fun b ->
          match loop_of_block.(b) with
          | Some jb when loops.(jb).depth >= l.depth -> ()
          | _ -> loop_of_block.(b) <- Some j)
        l.body)
    loops;
  { cfg; loops; loop_of_block }

(** Rebase a cached loop nest onto a rewritten function value.  Only
    valid when the rewrite preserved the CFG shape — the
    analysis-manager preserve contract. *)
let rebase t (f : Lmodule.func) = { t with cfg = Cfg.rebase t.cfg f }

let top_level (t : t) =
  List.filter (fun j -> t.loops.(j).parent = None)
    (List.init (Array.length t.loops) (fun j -> j))

(** Match the canonical counted-loop pattern the lowering emits:
    header has [%iv = phi ty [ lb, pre ], [ %iv.next, latch ]],
    a compare [icmp slt %iv, ub] controlling the exit, and
    [%iv.next = add %iv, step].  Returns [Some (lb, ub, step)] when all
    three are literal constants. *)
let trip_count_pattern (t : t) (j : int) : (int * int * int) option =
  let l = t.loops.(j) in
  let header_blk = Cfg.block t.cfg l.header in
  let insts = header_blk.Lmodule.insts in
  (* find the iv phi: a phi with one incoming from outside, one from a latch *)
  let latch_labels = List.map (Cfg.label t.cfg) l.latches in
  let find_phi () =
    List.find_map
      (fun (i : Linstr.t) ->
        match i.op with
        | Linstr.Phi incoming when List.length incoming = 2 ->
            let from_latch =
              List.find_opt (fun (_, lbl) -> List.mem lbl latch_labels) incoming
            in
            let from_outside =
              List.find_opt
                (fun (_, lbl) -> not (List.mem lbl latch_labels))
                incoming
            in
            (match (from_latch, from_outside) with
            | Some (vl, _), Some (vo, _) -> Some (i.result, vo, vl)
            | _ -> None)
        | _ -> None)
      insts
  in
  match find_phi () with
  | None -> None
  | Some (iv, init_v, next_v) -> (
      let lb = Lvalue.const_int_value init_v in
      (* ub from the header's exit compare *)
      let ub =
        List.find_map
          (fun (i : Linstr.t) ->
            match i.op with
            | Linstr.Icmp (Linstr.ISlt, Lvalue.Reg (r, _), bound) when r = iv ->
                Lvalue.const_int_value bound
            | Linstr.Icmp (Linstr.ISge, Lvalue.Reg (r, _), bound) when r = iv ->
                Lvalue.const_int_value bound
            | _ -> None)
          insts
      in
      (* step from the increment feeding the phi (may live in any loop block) *)
      let next_name =
        match next_v with Lvalue.Reg (r, _) -> Some r | _ -> None
      in
      let step =
        match next_name with
        | None -> None
        | Some nn ->
            List.find_map
              (fun bi ->
                let blk = Cfg.block t.cfg bi in
                List.find_map
                  (fun (i : Linstr.t) ->
                    if i.result = nn then
                      match i.op with
                      | Linstr.IBin (Linstr.Add, Lvalue.Reg (r, _), stepv)
                        when r = iv ->
                          Lvalue.const_int_value stepv
                      | Linstr.IBin (Linstr.Add, stepv, Lvalue.Reg (r, _))
                        when r = iv ->
                          Lvalue.const_int_value stepv
                      | _ -> None
                    else None)
                  blk.Lmodule.insts)
              l.body
      in
      match (lb, ub, step) with
      | Some lb, Some ub, Some st when st > 0 -> Some (lb, ub, st)
      | _ -> None)

(** Trip count if the canonical pattern matched. *)
let trip_count t j =
  match trip_count_pattern t j with
  | Some (lb, ub, st) -> Some (max 0 ((ub - lb + st - 1) / st))
  | None -> None
