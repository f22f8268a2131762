(** Dependence graph of one loop body (or function body), its list
    schedule, and the longest path around its loop-carried values.

    Models the essentials of the Vitis HLS scheduler:
    - operator latencies and combinational {e chaining} under a clock
      budget (0-latency ops pack into one cycle until the period runs
      out);
    - memory-port constraints (dual-port BRAM per array partition);
    - loop-carried recurrences (the longest path around a carry-phi
      cycle);
    - unroll replication (the body DFG is instantiated [replicas]
      times; reduction chains serialize across replicas exactly like a
      naively unrolled accumulation).

    Nested loops appear as barrier nodes of known latency.

    The graph is int arrays over the job's {!Findex} local ids.  Each
    body item is classified once — unit class, cost, array id, the
    earlier items and the carries it reads — and the replicas are
    instantiated by index: node [r * m + i] is item [i] of replica [r]
    ([m] items).  Predecessors are CSR arrays, each set deduplicated
    with a per-node stamp. *)

open Llvmir
open Linstr
module Sym = Support.Interner

type input = Block of int | Inner of int

type item = {
  fu : Op_model.fu_class;
  cost : Op_model.cost;
  inner : bool;
  array : int;
  store : bool;
  deps : int array;
  reads : int array;
}

type t = {
  items : item array;
  replicas : int;
  latches : int array;
  pred_off : int array;
  preds : int array;
  mem_count : int array;
}

type ctx = {
  idx : Findex.t;
  array_of : Sym.t -> int;
  def_item : int array;
      (** local id -> the item of the body being classified that
          defines it so far; [-1] between builds *)
}

let context ~idx ~array_of =
  { idx; array_of; def_item = Array.make (Findex.n_locals idx) (-1) }

let n_nodes g = Array.length g.items * g.replicas

(* Classify row [k].  Control and marker calls are handled by the loop
   accounting and make no item.  An operand defined by an earlier item
   is a dependence within the replica; a carry phi is read from the
   previous replica's latch (in replica 0, from the previous
   iteration); any other register is available at cycle 0. *)
let classify ctx ~(carries : (int * int) array) k =
  let i = Findex.instr ctx.idx k in
  match i.op with
  | Phi _ | Br _ | CondBr _ | Ret _ | Switch _ | Unreachable -> None
  | Call { callee; _ } when Adaptor_markers.is_marker callee -> None
  | op ->
      let fu, cost = Op_model.classify i in
      let root p =
        match Findex.base_pointer ctx.idx p with
        | Some r -> ctx.array_of r
        | None -> -1
      in
      let array, store =
        match op with
        | Load (_, p) -> (root p, false)
        | Store (_, p) -> (root p, true)
        | _ -> (-1, false)
      in
      let deps = ref [] and reads = ref [] in
      List.iter
        (function
          | Lvalue.Reg (n, _) ->
              let l = Findex.local_of ctx.idx n in
              if l >= 0 then
                if ctx.def_item.(l) >= 0 then deps := ctx.def_item.(l) :: !deps
                else
                  Array.iteri
                    (fun c (phi, _) -> if phi = l then reads := c :: !reads)
                    carries
          | _ -> ())
        (operands i);
      Some
        {
          fu;
          cost;
          inner = false;
          array;
          store;
          deps = Array.of_list !deps;
          reads = Array.of_list !reads;
        }

let barrier latency =
  {
    fu = Op_model.FU_none;
    cost = { Op_model.zero with latency };
    inner = true;
    array = -1;
    store = false;
    deps = [||];
    reads = [||];
  }

(* The body's items in program order; leaves [def_item] as found. *)
let classify_body ctx ~carries inputs =
  let items = ref [] and m = ref 0 in
  let add it =
    items := it :: !items;
    incr m
  in
  let rows b f =
    for k = Findex.block_start ctx.idx b to Findex.block_stop ctx.idx b - 1 do
      f k (Findex.local_of_res ctx.idx k)
    done
  in
  List.iter
    (function
      | Inner latency -> add (barrier latency)
      | Block b ->
          rows b (fun k l ->
              match classify ctx ~carries k with
              | Some it ->
                  if l >= 0 then ctx.def_item.(l) <- !m;
                  add it
              | None -> ()))
    inputs;
  let latches =
    Array.map
      (fun (_, latch) -> if latch >= 0 then ctx.def_item.(latch) else -1)
      carries
  in
  List.iter
    (function
      | Block b -> rows b (fun _ l -> if l >= 0 then ctx.def_item.(l) <- -1)
      | Inner _ -> ())
    inputs;
  (Array.of_list (List.rev !items), latches)

(** Build the DFG.

    [inputs]: body contents in program order.  [carries]: [(phi,
    latch)] local ids of each loop-carried value.  [replicas]: unroll
    instantiation count (>= 1).  Registers defined outside the body,
    the induction variable and carry phis included, are available at
    cycle 0. *)
let build ctx ~(carries : (int * int) array) ~(replicas : int)
    (inputs : input list) : t =
  let items, latches = classify_body ctx ~carries inputs in
  let m = Array.length items in
  let n = m * replicas in
  let n_arrays = Array.fold_left (fun acc it -> Int.max acc (it.array + 1)) 0 items in
  let pred_off = Array.make (n + 1) 0 in
  let preds = ref (Array.make (Int.max 16 (4 * n)) 0) and n_preds = ref 0 in
  let stamp = Array.make n (-1) in
  let push v p =
    if stamp.(p) <> v then begin
      stamp.(p) <- v;
      if !n_preds = Array.length !preds then
        preds := Array.append !preds (Array.make !n_preds 0);
      !preds.(!n_preds) <- p;
      incr n_preds
    end
  in
  (* memory ordering: per array, the last store and the loads since it
     (a chain through [since_prev]) *)
  let last_store = Array.make n_arrays (-1) in
  let since = Array.make n_arrays (-1) in
  let since_prev = Array.make n (-1) in
  let mem_count = Array.make n_arrays 0 in
  let last_barrier = ref (-1) in
  for r = 0 to replicas - 1 do
    for i = 0 to m - 1 do
      let v = (r * m) + i in
      pred_off.(v) <- !n_preds;
      let it = items.(i) in
      if it.inner then begin
        (* a barrier depends on everything so far *)
        for p = 0 to v - 1 do
          push v p
        done;
        last_barrier := v
      end
      else begin
        if !last_barrier >= 0 then push v !last_barrier;
        Array.iter (fun j -> push v ((r * m) + j)) it.deps;
        if r > 0 then
          Array.iter
            (fun c ->
              if latches.(c) >= 0 then push v (((r - 1) * m) + latches.(c)))
            it.reads;
        let a = it.array in
        if a >= 0 then begin
          mem_count.(a) <- mem_count.(a) + 1;
          if it.store then begin
            let p = ref since.(a) in
            while !p >= 0 do
              push v !p;
              p := since_prev.(!p)
            done;
            if last_store.(a) >= 0 then push v last_store.(a);
            last_store.(a) <- v;
            since.(a) <- -1
          end
          else begin
            if last_store.(a) >= 0 then push v last_store.(a);
            since_prev.(v) <- since.(a);
            since.(a) <- v
          end
        end
      end
    done
  done;
  pred_off.(n) <- !n_preds;
  {
    items;
    replicas;
    latches;
    pred_off;
    preds = !preds;
    mem_count;
  }

(** List-schedule the DFG: each node starts at the first cycle its
    operands are ready, chained into the producer's cycle while the
    period allows, and moved later while its array's ports are busy. *)
let list_schedule ~(clock_ns : float) ~(ports : int -> int) (g : t) :
    int array * int =
  let items = g.items in
  let m = Array.length items in
  let n = n_nodes g in
  let starts = Array.make n 0 in
  (* what a node offers its successors: a registered result at its
     finish, or a combinational one chained from its start *)
  let ready_at = Array.make n 0 in
  let chain_end = Array.make n 0.0 in
  let length = ref 0 in
  (* per array: the accesses scheduled in each cycle, an open-addressing
     table from cycle to count with room for twice the array's
     accesses, made on its first one *)
  let cycles = Array.make (Array.length g.mem_count) [||] in
  let counts = Array.make (Array.length g.mem_count) [||] in
  let slot a c =
    if Array.length cycles.(a) = 0 then begin
      let size = ref 2 in
      while !size < 2 * g.mem_count.(a) do
        size := 2 * !size
      done;
      cycles.(a) <- Array.make !size min_int;
      counts.(a) <- Array.make !size 0
    end;
    let keys = cycles.(a) in
    let mask = Array.length keys - 1 in
    let i = ref (c land mask) in
    while keys.(!i) <> c && keys.(!i) <> min_int do
      i := (!i + 1) land mask
    done;
    !i
  in
  let busy a c =
    let i = slot a c in
    if cycles.(a).(i) = c then counts.(a).(i) else 0
  in
  for r = 0 to g.replicas - 1 do
    for i = 0 to m - 1 do
      let v = (r * m) + i in
      let it = items.(i) in
      let ready_cycle = ref 0 and ready_delay = ref 0.0 in
      for e = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
        let p = g.preds.(e) in
        let c = ready_at.(p) and d = chain_end.(p) in
        if c > !ready_cycle then begin
          ready_cycle := c;
          ready_delay := d
        end
        else if c = !ready_cycle && d > !ready_delay then ready_delay := d
      done;
      let delay = it.cost.Op_model.delay
      and latency = it.cost.Op_model.latency in
      (* chaining: does this op fit in the remaining period? *)
      let cycle = ref !ready_cycle and base_delay = ref !ready_delay in
      if !ready_delay +. delay > clock_ns then begin
        cycle := !ready_cycle + 1;
        base_delay := 0.0
      end;
      (* memory port availability *)
      let a = it.array in
      if a >= 0 then begin
        let p = ports a in
        while busy a !cycle >= p do
          incr cycle;
          base_delay := 0.0
        done;
        let i = slot a !cycle in
        cycles.(a).(i) <- !cycle;
        counts.(a).(i) <- counts.(a).(i) + 1
      end;
      starts.(v) <- !cycle;
      ready_at.(v) <- (if latency > 0 then !cycle + latency else !cycle);
      chain_end.(v) <- (if latency = 0 then !base_delay +. delay else 0.0);
      length := Int.max !length (!cycle + latency)
    done
  done;
  (starts, !length)

(* [weight] of every item, from its latency *)
let weights ~weight g =
  Array.map (fun it -> weight it.cost.Op_model.latency) g.items

(** Length of an ASAP firing with unlimited units: each node finishes
    [weight] after its last predecessor. *)
let asap_length ~(weight : int -> int) (g : t) : int =
  let w = weights ~weight g in
  let m = Array.length g.items in
  let finish = Array.make (n_nodes g) 0 in
  let length = ref 0 in
  for r = 0 to g.replicas - 1 do
    for i = 0 to m - 1 do
      let v = (r * m) + i in
      let f = ref 0 in
      for e = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
        f := Int.max !f finish.(g.preds.(e))
      done;
      finish.(v) <- !f + w.(i);
      length := Int.max !length finish.(v)
    done
  done;
  !length

(** For each carry, the longest path from a node reading the phi
    (replica 0) to the final replica's latch definition; a reader of
    the phi restarts the path at 0.  A node reading several carries
    starts each one's path.  Serves both the RecMII (latency weights)
    and the elastic token round trip (handshake weights). *)
let longest_carried_path ~(weight : int -> int) (g : t) : int =
  let w = weights ~weight g in
  let m = Array.length g.items in
  (* dist: longest path from the phi, -1 = unreachable *)
  let dist = Array.make (n_nodes g) (-1) in
  let best = ref 0 in
  Array.iteri
    (fun c latch ->
      if latch >= 0 then begin
        let target = ((g.replicas - 1) * m) + latch in
        for r = 0 to g.replicas - 1 do
          for i = 0 to m - 1 do
            let v = (r * m) + i in
            if v <= target then begin
              let base =
                if r = 0 && Array.exists (fun c' -> c' = c) g.items.(i).reads
                then 0
                else begin
                  let b = ref (-1) in
                  for e = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
                    b := Int.max !b dist.(g.preds.(e))
                  done;
                  !b
                end
              in
              dist.(v) <- (if base >= 0 then base + w.(i) else -1)
            end
          done
        done;
        best := Int.max !best dist.(target)
      end)
    g.latches;
  !best
