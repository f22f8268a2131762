(** Extraction of HLS directives (pipeline/unroll/tripcount markers,
    array partitioning) from adapted IR. *)

type loop_directives = {
  pipeline_ii : int option;
  unroll : int option;
  tripcount : int option;
}

val no_directives : loop_directives

(** Directives attached to loop [i] of the function, read from the
    [_ssdm_op_Spec*] markers in its header block. *)
val loop_directives :
  Llvmir.Cfg.t -> Llvmir.Loop_info.t -> int -> loop_directives

type array_info = {
  aname : string;
  dims : int list;
  elem_bits : int;
  partition_factor : int;
  partition_kind : string;  (** "cyclic" | "block" | "complete" *)
  partition_dim : int;
  local : bool;
}

(** Memory ports available after partitioning. *)
val ports : array_info -> int

val array_dims : Llvmir.Ltype.t -> int list * int
val total_elems : array_info -> int

(** All arrays visible to the function: pointer params and local
    allocas, with their partition pragmas resolved. *)
val arrays : Llvmir.Lmodule.func -> array_info list
