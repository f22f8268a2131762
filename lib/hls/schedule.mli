(** Dependence graph of one loop body (or function body), its list
    schedule, and the longest path around its loop-carried values.
    The graph is int arrays: node [r * m + i] is item [i] of replica
    [r], for the [m] items of the body. *)

module Sym = Support.Interner

(** What the loop-nest walk hands over, in program order. *)
type input =
  | Block of int  (** the instructions of a block, by its number *)
  | Inner of int
      (** latency of a fully scheduled inner loop, treated as one long
          operation *)

(** A body item, classified once for every replica. *)
type item = {
  fu : Op_model.fu_class;
  cost : Op_model.cost;  (** a barrier's cost is its latency alone *)
  inner : bool;  (** an inner-loop barrier *)
  array : int;  (** id of the array it loads or stores; [-1] for none *)
  store : bool;
  deps : int array;  (** earlier items of the same replica it reads *)
  reads : int array;  (** the carries it reads, as indices of [carries] *)
}

type t = {
  items : item array;
  replicas : int;
  latches : int array;
      (** per carry: the item defining its latch value, [-1] when that
          is defined outside the body *)
  pred_off : int array;
      (** node [v]'s predecessors are [preds.(pred_off.(v)) ..
          preds.(pred_off.(v + 1) - 1)], each smaller than [v] and
          listed once *)
  preds : int array;
  mem_count : int array;  (** accesses per array id, all replicas *)
}

(** A compile job's classification context: its function index, and
    [array_of], which names the root of a load or store address by a
    small array id. *)
type ctx

val context : idx:Llvmir.Findex.t -> array_of:(Sym.t -> int) -> ctx
val n_nodes : t -> int

(** Build the dependence graph of [inputs], instantiated [replicas]
    times, with [carries] the [(phi, latch)] local ids of the
    loop-carried values. *)
val build : ctx -> carries:(int * int) array -> replicas:int -> input list -> t

(** List-schedule the graph under [clock_ns] with [ports] memory ports
    per array id: start cycle of every node, and the schedule length. *)
val list_schedule :
  clock_ns:float -> ports:(int -> int) -> t -> int array * int

(** Length of an ASAP firing with unlimited units, each node taking
    [weight] of its latency. *)
val asap_length : weight:(int -> int) -> t -> int

(** Longest path, each node weighing [weight] of its latency, from a
    reader of a carry phi (replica 0) to the final replica's
    definition of its latch value, over all carries; 0 when no such
    path exists. *)
val longest_carried_path : weight:(int -> int) -> t -> int
