(** Recognition of the [_ssdm_op_*] directive markers the adaptor
    plants in HLS-ready IR, plus the legality check the back-end runs
    before synthesis. *)

val spec_pipeline : string
val spec_unroll : string
val spec_trip_count : string

(** True for any [_ssdm_op_*] marker call. *)
val is_marker : string -> bool

(** True for intrinsics the back-end knows how to ignore or model. *)
val is_known_intrinsic : string -> bool

(** Human-readable reasons the module is not HLS-ready; empty means
    the module may enter synthesis. *)
val legality_errors : Llvmir.Lmodule.t -> string list
