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

    Nested loops appear as barrier nodes of known latency. *)

open Llvmir
open Linstr
module Sym = Support.Interner

type item =
  | Instr of Linstr.t
  | Inner of int  (** latency of a nested loop, already estimated *)

type node = {
  nid : int;
  fu : Op_model.fu_class;
  latency : int;
  delay : float;
  cost : Op_model.cost;
  array : string option;
  is_inner : bool;
  result : Sym.t;  (** defining register, {!Sym.empty} if none *)
  replica : int;
  preds : int list;
  carry_base : Sym.t option;
      (** when this node reads carry phi [p] of replica 0, set to [p] *)
}

type t = {
  nodes : node array;  (** in creation order: preds have smaller nids *)
  mem_accesses : (string * int) list;  (** per-array accesses / iteration *)
}

(** Build the DFG.

    [items]: body contents in program order.
    [carries]: [(phi_name, latch_reg)] for each loop-carried value.
    [replicas]: unroll instantiation count (>= 1).  Registers defined
    outside the body, the induction variable and carry phis included,
    are available at cycle 0. *)
let build ~(carries : (Sym.t * Sym.t) list) ~(replicas : int)
    ~(idx : Findex.t) (items : item list) : t =
  let nodes = ref [] in
  let n_count = ref 0 in
  (* per replica: reg -> nid *)
  let def_node = Array.init replicas (fun _ -> Sym.Tbl.create 16) in
  let carry_latch = carries in
  let is_carry n = List.mem_assoc n carry_latch in
  (* memory ordering state *)
  let last_store : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let accesses_since : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let mem_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let last_barrier = ref (-1) in
  let add_node ~fu ~latency ~delay ~cost ~array ~is_inner ~result ~replica
      ~preds ~carry_base =
    let nid = !n_count in
    incr n_count;
    let preds = if !last_barrier >= 0 then !last_barrier :: preds else preds in
    nodes :=
      {
        nid;
        fu;
        latency;
        delay;
        cost;
        array;
        is_inner;
        result;
        replica;
        preds = List.sort_uniq compare preds;
        carry_base;
      }
      :: !nodes;
    if not (Sym.is_empty result) then
      Sym.Tbl.replace def_node.(replica) result nid;
    nid
  in
  for r = 0 to replicas - 1 do
    List.iter
      (fun item ->
        match item with
        | Inner latency ->
            (* barrier node: depends on everything so far *)
            let preds = List.init !n_count Fun.id in
            let nid =
              add_node ~fu:Op_model.FU_none ~latency ~delay:0.0
                ~cost:Op_model.zero ~array:None ~is_inner:true
                ~result:Sym.empty ~replica:r ~preds ~carry_base:None
            in
            last_barrier := nid
        | Instr i -> (
            match i.op with
            | Phi _ | Br _ | CondBr _ | Ret _ | Switch _ | Unreachable ->
                ()  (* control handled by loop accounting *)
            | Call { callee; _ } when Adaptor_markers.is_marker callee -> ()
            | _ ->
                let fu, cost = Op_model.classify i in
                let array, is_store =
                  match i.op with
                  | Load (_, p) -> (Directives.base_array idx p, false)
                  | Store (_, p) -> (Directives.base_array idx p, true)
                  | _ -> (None, false)
                in
                (* data predecessors *)
                let carry_base = ref None in
                let preds =
                  List.filter_map
                    (fun v ->
                      match v with
                      | Lvalue.Reg (n, _) -> (
                          match Sym.Tbl.find_opt def_node.(r) n with
                          | Some nid -> Some nid
                          | None ->
                              if is_carry n then
                                if r = 0 then begin
                                  carry_base := Some n;
                                  None
                                end
                                else
                                  (* replica r reads replica r-1's latch *)
                                  let latch = List.assoc n carry_latch in
                                  Sym.Tbl.find_opt def_node.(r - 1) latch
                              else None)
                      | _ -> None)
                    (operands i)
                in
                (* memory ordering *)
                let mem_preds =
                  match array with
                  | None -> []
                  | Some a ->
                      Hashtbl.replace mem_counts a
                        (1 + Option.value ~default:0 (Hashtbl.find_opt mem_counts a));
                      if is_store then begin
                        let ps =
                          Option.value ~default:[]
                            (Hashtbl.find_opt accesses_since a)
                          @
                          match Hashtbl.find_opt last_store a with
                          | Some s -> [ s ]
                          | None -> []
                        in
                        ps
                      end
                      else
                        (match Hashtbl.find_opt last_store a with
                        | Some s -> [ s ]
                        | None -> [])
                in
                let nid =
                  add_node ~fu ~latency:cost.Op_model.latency
                    ~delay:cost.Op_model.delay ~cost ~array ~is_inner:false
                    ~result:i.result ~replica:r ~preds:(preds @ mem_preds)
                    ~carry_base:!carry_base
                in
                (match array with
                | Some a ->
                    if is_store then begin
                      Hashtbl.replace last_store a nid;
                      Hashtbl.replace accesses_since a []
                    end
                    else
                      Hashtbl.replace accesses_since a
                        (nid
                        :: Option.value ~default:[]
                             (Hashtbl.find_opt accesses_since a))
                | None -> ())))
      items
  done;
  let mem_accesses =
    Hashtbl.fold (fun a c acc -> (a, c) :: acc) mem_counts []
    |> List.sort compare
  in
  { nodes = Array.of_list (List.rev !nodes); mem_accesses }

(** List-schedule the DFG: each node starts at the first cycle its
    operands are ready, chained into the producer's cycle while the
    period allows, and moved later while its array's ports are busy. *)
let list_schedule ~(clock_ns : float) ~(ports_of : string -> int) (g : t) :
    int array * int =
  let nodes = g.nodes in
  let n = Array.length nodes in
  let starts = Array.make n 0 in
  let finishes = Array.make n 0 in
  let chain_end = Array.make n 0.0 in
  (* per-(array, cycle) port usage *)
  let port_usage : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun nd ->
      let ready_cycle = ref 0 and ready_delay = ref 0.0 in
      List.iter
        (fun p ->
          let pnode = nodes.(p) in
          let c, d =
            if pnode.latency > 0 then (finishes.(p), 0.0)
            else (starts.(p), chain_end.(p))
          in
          if c > !ready_cycle then begin
            ready_cycle := c;
            ready_delay := d
          end
          else if c = !ready_cycle && d > !ready_delay then ready_delay := d)
        nd.preds;
      (* chaining: does this op fit in the remaining period? *)
      let cycle, base_delay =
        if !ready_delay +. nd.delay > clock_ns then (!ready_cycle + 1, 0.0)
        else (!ready_cycle, !ready_delay)
      in
      (* memory port availability *)
      let cycle, base_delay =
        match nd.array with
        | None -> (cycle, base_delay)
        | Some a ->
            let ports = ports_of a in
            let c = ref cycle and d = ref base_delay in
            while
              Option.value ~default:0 (Hashtbl.find_opt port_usage (a, !c))
              >= ports
            do
              incr c;
              d := 0.0
            done;
            Hashtbl.replace port_usage (a, !c)
              (1 + Option.value ~default:0 (Hashtbl.find_opt port_usage (a, !c)));
            (!c, !d)
      in
      starts.(nd.nid) <- cycle;
      finishes.(nd.nid) <- cycle + nd.latency;
      chain_end.(nd.nid) <-
        (if nd.latency = 0 then base_delay +. nd.delay else 0.0))
    nodes;
  (starts, Array.fold_left max 0 finishes)

(** For each carry, the longest path from a node reading the phi
    (replica 0) to the final replica's latch definition; a reader of
    the phi restarts the path at 0.  Serves both the RecMII (latency
    weights) and the elastic token round trip (handshake weights). *)
let longest_carried_path ~(weight : node -> int) ~(replicas : int) (g : t)
    (carries : (Sym.t * Sym.t) list) : int =
  List.fold_left
    (fun best (phi, latch) ->
      (* dist: longest path from the phi, -1 = unreachable *)
      let dist = Array.make (Array.length g.nodes) (-1) in
      Array.fold_left
        (fun best nd ->
          let base =
            if nd.carry_base = Some phi then 0
            else List.fold_left (fun acc p -> max acc dist.(p)) (-1) nd.preds
          in
          if base >= 0 then dist.(nd.nid) <- base + weight nd;
          if nd.replica = replicas - 1 && nd.result = latch then
            max best dist.(nd.nid)
          else best)
        best g.nodes)
    0 carries
