(** The HLS estimator: one loop-nest walk for both scheduling
    disciplines.

    Loops are estimated innermost-first; each nested loop appears in
    its parent's dependence graph ({!Schedule.build}) as a barrier node
    of known latency.  Trip counts, unroll replication (the body graph
    is instantiated [u] times and the trip count divided by [u]),
    carried values, the port-bound ResMII and array BRAM are the same
    under both disciplines.  [sched] decides only:

    - body timing: the list schedule's length, with chaining and port
      limits ([Static]), or ASAP dataflow firing, where every unit
      registers its handshake and so takes at least a cycle
      ([Dynamic]);
    - the II rule and loop total: [Static] overlaps iterations only in
      loops with a pipeline directive, at [II = max(target, RecMII,
      ResMII)], and runs the others for [N·(L+1) + 2] cycles;
      [Dynamic] overlaps every loop, at [II = max(token round trip,
      ResMII)]; an overlapped loop costs [L + (N-1)·II + 2];
    - units: [Static] shares units over time and across loops, merged
      by max; [Dynamic] instantiates one per operation, merged by sum;
    - the elastic FIFO fabric, [Dynamic] only;
    - control overhead: counter FSMs or handshake steering per loop;
    - II-miss warnings: only [Static] keeps the target II they need. *)

open Llvmir
module E = Estimate
module Sym = Support.Interner

type sched = Static | Dynamic

let sched_name = function Static -> "static" | Dynamic -> "dynamic"

let sched_of_name = function
  | "static" -> Some Static
  | "dynamic" -> Some Dynamic
  | _ -> None

let all_scheds = [ Static; Dynamic ]

(** Default elastic-channel geometry: word-wide tokens, two slots (one
    transparent + one opaque buffer, the minimal throughput-preserving
    configuration). *)
let channel_bits = 32
let channel_depth = 2

let fail = Support.Err.fail ~pass:"hls.estimate"

(* Functional-unit demand per class: class -> (cost, unit count). *)
module Units = Map.Make (Int)

(* A class's key in {!Units}; [-1] for what binds no shared unit. *)
let unit_key : Op_model.fu_class -> int = function
  | Op_model.FU_none | Op_model.FU_mem_read | Op_model.FU_mem_write -> -1
  | Op_model.FU_fadd -> 0
  | Op_model.FU_fmul -> 1
  | Op_model.FU_fdiv -> 2
  | Op_model.FU_idiv -> 3
  | Op_model.FU_alu -> 4
  | Op_model.FU_imul w -> 5 + w

(* ------------------------------------------------------------------ *)
(* What the disciplines disagree on                                   *)
(* ------------------------------------------------------------------ *)

(** Elastic occupancy of a node of latency [l]: handshake registering
    makes every real operation take at least a cycle; inner-loop
    barriers keep their estimated latency. *)
let elastic_latency l = Int.max 1 l

(** One body's timing: its length in cycles, the II bound its carried
    values impose, and each node's start cycle (list schedule only). *)
type timing = { length : int; rec_ii : int; starts : int array }

let time_body sched ~clock_ns ~ports (g : Schedule.t) : timing =
  match sched with
  | Static ->
      let starts, length = Schedule.list_schedule ~clock_ns ~ports g in
      let path = Schedule.longest_carried_path ~weight:(fun l -> Int.max l 0) g in
      { length; rec_ii = max 1 path; starts }
  | Dynamic ->
      (* a unit fires as soon as every operand token has arrived; the
         token round trip is the elastic path around the recurrence
         plus one cycle through the back-edge buffer that returns the
         token to the phi *)
      let length = Schedule.asap_length ~weight:elastic_latency g in
      let path = Schedule.longest_carried_path ~weight:elastic_latency g in
      { length; rec_ii = path + 1; starts = [||] }

(** Units one body needs per class, each class priced at its last
    operation's cost.  [Static] shares a class's units over time: the
    starts folded modulo the II when iterations overlap, else the peak
    overlap of busy intervals.  [Dynamic] instantiates one unit per
    operation. *)
let body_units sched ~(ii : int option) (g : Schedule.t) (t : timing) =
  let items = g.Schedule.items in
  let m = Array.length items and replicas = g.Schedule.replicas in
  let key i = unit_key items.(i).Schedule.fu in
  (* per class: the cost of its last item, and how many items it has *)
  let classes = ref Units.empty in
  for i = 0 to m - 1 do
    if key i >= 0 then
      classes :=
        Units.update (key i)
          (fun prev ->
            Some
              ( items.(i).Schedule.cost,
                1 + match prev with Some (_, n) -> n | None -> 0 ))
          !classes
  done;
  (* the start of every node of class [k] *)
  let starts_of k =
    let acc = ref [] in
    for r = replicas - 1 downto 0 do
      for i = m - 1 downto 0 do
        if key i = k then acc := t.starts.((r * m) + i) :: !acc
      done
    done;
    !acc
  in
  Units.mapi
    (fun k ((cost : Op_model.cost), count) ->
      match (sched, ii) with
      | Dynamic, _ -> (cost, replicas * count)
      | Static, Some ii when ii > 0 ->
          let buckets = Array.make ii 0 in
          List.iter
            (fun c -> buckets.(c mod ii) <- buckets.(c mod ii) + 1)
            (starts_of k);
          (cost, Array.fold_left Int.max 1 buckets)
      | Static, _ ->
          (* every busy interval is [c, c + span): the peak overlap is
             the most starts in a window of [span] ending at a start *)
          let span = max 1 cost.Op_model.latency in
          let s = Array.of_list (starts_of k) in
          Array.sort Int.compare s;
          let lo = ref 0 and peak = ref 1 in
          Array.iteri
            (fun hi c ->
              while s.(!lo) <= c - span do
                incr lo
              done;
              peak := Int.max !peak (hi - !lo + 1))
            s;
          (cost, !peak))
    !classes

(** Sibling bodies never run at once under [Static], so their unit
    counts merge by max; a [Dynamic] circuit is spatial, so they add.
    Each class keeps the left operand's cost. *)
let merge_units sched a b =
  let combine = match sched with Static -> max | Dynamic -> ( + ) in
  Units.union (fun _ (c, u1) (_, u2) -> Some (c, combine u1 u2)) a b

(** Elastic FIFO fabric of one body, [Dynamic] only: a channel per
    dependence edge of a real node, a control-token channel per
    inner-loop barrier, and a back-edge buffer per carried value. *)
let fifo_fabric sched (g : Schedule.t) ~n_carries : E.resources =
  match sched with
  | Static -> E.res_zero
  | Dynamic ->
      let items = g.Schedule.items and off = g.Schedule.pred_off in
      let m = Array.length items in
      let channels = ref n_carries in
      for v = 0 to Schedule.n_nodes g - 1 do
        channels :=
          !channels
          + if items.(v mod m).Schedule.inner then 1 else off.(v + 1) - off.(v)
      done;
      let channels = !channels in
      let bram, lut, ff =
        Op_model.fifo_cost ~depth:channel_depth ~bits:channel_bits
      in
      { E.bram = channels * bram; dsp = 0; lut = channels * lut; ff = channels * ff }

(** Control for [n] loops: counter-driven FSMs ([Static]), or a
    fork/join/branch handshake steering network ([Dynamic]). *)
let control sched n : E.resources =
  match sched with
  | Static -> { E.res_zero with E.lut = 150 + (80 * n); ff = 200 + (100 * n) }
  | Dynamic -> { E.res_zero with E.lut = 120 + (60 * n); ff = 160 + (80 * n) }

(* ------------------------------------------------------------------ *)
(* The loop-nest walk                                                 *)
(* ------------------------------------------------------------------ *)

(** What the loops nested in a body contribute: their reports
    (outermost-first, layout order), units, elastic fabric, and
    per-array accesses over one full execution (which drive the ResMII
    of an enclosing loop), keyed by array id. *)
type nest = {
  reports : E.loop_report list;
  units : (Op_model.cost * int) Units.t;
  fifos : E.resources;
  accesses : (int * int) list;
}

let no_nest =
  { reports = []; units = Units.empty; fifos = E.res_zero; accesses = [] }

let acc_merge a b =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt k acc) in
      (k, prev + v) :: List.remove_assoc k acc)
    a b

let synthesize ?(clock_ns = Op_model.default_clock_ns) ?(sched = Static)
    ?(am = Analysis.create ()) ~(top : string) (m : Lmodule.t) : E.report =
  (match Adaptor_markers.legality_errors m with
  | [] -> ()
  | errs -> raise (E.Rejected errs));
  let f = Lmodule.find_func_exn m top in
  let cfg = Analysis.cfg ~am f in
  let li = Analysis.loop_info ~am f in
  let idx = Analysis.findex ~am f in
  let arrays = Directives.arrays f in
  (* the root of every load/store address as a small id, with its
     name and its memory ports *)
  let ids = Sym.Tbl.create 8 and roots = ref [||] in
  let array_of root =
    match Sym.Tbl.find_opt ids root with
    | Some a -> a
    | None ->
        let a = Array.length !roots in
        let name = Sym.name root in
        let ports =
          List.fold_left
            (fun acc (ai : Directives.array_info) ->
              if ai.Directives.aname = name then Directives.ports ai else acc)
            2 arrays
        in
        Sym.Tbl.replace ids root a;
        roots := Array.append !roots [| (name, ports) |];
        a
  in
  let name a = fst !roots.(a) and ports a = snd !roots.(a) in
  let ctx = Schedule.context ~idx ~array_of in
  let time = time_body sched ~clock_ns ~ports in
  (* per-iteration accesses of a body, in array-name order *)
  let accesses (g : Schedule.t) =
    let acc = ref [] in
    Array.iteri
      (fun a c -> if c > 0 then acc := (a, c) :: !acc)
      g.Schedule.mem_count;
    List.sort (fun (a, _) (b, _) -> String.compare (name a) (name b)) !acc
  in
  let add a b =
    {
      reports = a.reports @ b.reports;
      units = merge_units sched a.units b.units;
      fifos = E.res_add a.fifos b.fifos;
      accesses = acc_merge a.accesses b.accesses;
    }
  in
  (* the blocks directly in loop [j] ([None]: outside every loop), with
     each direct child loop as a barrier at its header, and what those
     children contribute *)
  let rec body j =
    let children =
      match j with
      | None -> Loop_info.top_level li
      | Some j -> li.Loop_info.loops.(j).Loop_info.children
    in
    let estimated =
      List.map (fun c -> (li.Loop_info.loops.(c).Loop_info.header, loop c)) children
    in
    let inputs = ref [] and nest = ref no_nest in
    for b = 0 to Findex.n_blocks idx - 1 do
      if Option.equal Int.equal li.Loop_info.loop_of_block.(b) j then
        inputs := Schedule.Block b :: !inputs
      else
        List.iter
          (fun (header, (total, n)) ->
            if header = b then begin
              inputs := Schedule.Inner total :: !inputs;
              nest := add !nest n
            end)
          estimated
    done;
    (List.rev !inputs, !nest)
  (* a loop's total latency and its nest, itself included *)
  and loop j =
    let l = li.Loop_info.loops.(j) in
    let header = l.Loop_info.header in
    let label = Sym.name (Cfg.label cfg header) in
    let dir = Directives.loop_directives cfg li j in
    let tripcount =
      match dir.Directives.tripcount with
      | Some n -> n
      | None -> (
          match Loop_info.trip_count li j with
          | Some n -> n
          | None ->
              fail "@%s: loop at %%%s has no static trip count" f.Lmodule.fname
                label)
    in
    let unroll =
      match dir.Directives.unroll with
      | Some 0 -> max 1 tripcount (* full *)
      | Some u -> max 1 (min u tripcount)
      | None -> 1
    in
    let trip' = (tripcount + unroll - 1) / unroll in
    let inputs, kids = body (Some j) in
    (* carries: header phis with an incoming value from a latch *)
    let latch_labels = List.map (Cfg.label cfg) l.Loop_info.latches in
    let carries = ref [] in
    for k = Findex.block_stop idx header - 1 downto Findex.block_start idx header do
      match (Findex.instr idx k).Linstr.op with
      | Linstr.Phi incoming -> (
          match
            List.find_opt
              (fun (_, lbl) -> List.exists (Sym.equal lbl) latch_labels)
              incoming
          with
          | Some (Lvalue.Reg (latch_reg, _), _) ->
              carries :=
                (Findex.local_of_res idx k, Findex.local_of idx latch_reg)
                :: !carries
          | _ -> ())
      | _ -> ()
    done;
    let carries = Array.of_list !carries in
    let g = Schedule.build ctx ~carries ~replicas:unroll inputs in
    let t = time g in
    let iteration_latency = max 1 t.length in
    (* per-iteration memory pressure includes nested loops' accesses *)
    let per_iter_acc = acc_merge (accesses g) kids.accesses in
    let res_mii =
      List.fold_left
        (fun acc (a, c) -> max acc ((c + ports a - 1) / ports a))
        1 per_iter_acc
    in
    (* the II rule: [Static] overlaps iterations only under a pipeline
       directive, never below its target; a dataflow circuit always
       overlaps them, at whatever II its tokens and ports allow *)
    let target_ii, ii =
      match (sched, dir.Directives.pipeline_ii) with
      | Static, None -> (None, None)
      | Static, Some target ->
          (Some target, Some (max target (max t.rec_ii res_mii)))
      | Dynamic, _ -> (None, Some (max t.rec_ii res_mii))
    in
    (* a loop that never runs costs only its entry and exit cycles,
       which is what the back-to-back formula gives at N = 0 *)
    let total =
      match ii with
      | Some ii when trip' > 0 -> iteration_latency + ((trip' - 1) * ii) + 2
      | _ -> (trip' * (iteration_latency + 1)) + 2
    in
    let report =
      {
        E.label;
        depth = l.Loop_info.depth;
        tripcount;
        unroll;
        pipelined = ii <> None;
        target_ii;
        achieved_ii = ii;
        rec_mii = t.rec_ii;
        res_mii;
        iteration_latency;
        total_latency = total;
        mem_accesses = List.map (fun (a, c) -> (name a, c)) per_iter_acc;
      }
    in
    ( total,
      {
        reports = report :: kids.reports;
        units = merge_units sched kids.units (body_units sched ~ii g t);
        fifos =
          E.res_add kids.fifos
            (fifo_fabric sched g ~n_carries:(Array.length carries));
        accesses = List.map (fun (a, c) -> (a, c * trip')) per_iter_acc;
      } )
  in
  let inputs, loops = body None in
  let g = Schedule.build ctx ~carries:[||] ~replicas:1 inputs in
  let t = time g in
  let units = merge_units sched loops.units (body_units sched ~ii:None g t) in
  let fu =
    Units.fold
      (fun _ ((cost : Op_model.cost), n) acc ->
        E.res_add acc
          {
            E.bram = 0;
            dsp = n * cost.Op_model.dsp;
            lut = n * cost.Op_model.lut;
            ff = n * cost.Op_model.ff;
          })
      units E.res_zero
  in
  let bram = List.fold_left (fun acc a -> acc + E.bram_of_array a) 0 arrays in
  let resources =
    List.fold_left E.res_add fu
      [
        { E.res_zero with E.bram };
        control sched (List.length loops.reports);
        loops.fifos;
        fifo_fabric sched g ~n_carries:0;
      ]
  in
  let warnings =
    List.filter_map
      (fun (lr : E.loop_report) ->
        match (lr.E.target_ii, lr.E.achieved_ii) with
        | Some t, Some a when a > t ->
            Some
              (Printf.sprintf
                 "loop %%%s: target II=%d not met, achieved II=%d (RecMII=%d, \
                  ResMII=%d)"
                 lr.E.label t a lr.E.rec_mii lr.E.res_mii)
        | _ -> None)
      loops.reports
  in
  let latency = t.length + 2 in
  {
    E.top;
    clock_ns;
    latency;
    interval = latency + 1;
    loops = loops.reports;
    resources;
    arrays;
    warnings;
  }
