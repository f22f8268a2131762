(** Dependence graph of one loop body (or function body), its list
    schedule, and the longest path around its loop-carried values. *)

module Sym = Support.Interner

type item =
  | Instr of Llvmir.Linstr.t
  | Inner of int
      (** latency of a fully scheduled inner loop, treated as one long
          operation *)

type node = {
  nid : int;
  fu : Op_model.fu_class;
  latency : int;
  delay : float;
  cost : Op_model.cost;
  array : string option;
  is_inner : bool;
  result : Sym.t;
  replica : int;
  preds : int list;
  carry_base : Sym.t option;
}

type t = {
  nodes : node array;  (** every predecessor has a smaller [nid] *)
  mem_accesses : (string * int) list;
}

(** Build the dependence graph of [items], instantiated [replicas]
    times, with [carries] the [(phi, latch)] pairs of loop-carried
    values. *)
val build :
  carries:(Sym.t * Sym.t) list ->
  replicas:int ->
  idx:Llvmir.Findex.t ->
  item list ->
  t

(** List-schedule the graph under [clock_ns] with [ports_of] memory
    ports per array: start cycle of every node, and the schedule
    length. *)
val list_schedule :
  clock_ns:float -> ports_of:(string -> int) -> t -> int array * int

(** Longest [weight]ed path from a reader of a carry phi (replica 0)
    to the final replica's definition of its latch value, over all
    [carries]; 0 when no such path exists. *)
val longest_carried_path :
  weight:(node -> int) -> replicas:int -> t -> (Sym.t * Sym.t) list -> int
