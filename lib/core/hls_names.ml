(** Names and shapes shared across the adaptor passes: the Vitis-style
    spec-op markers the legalized IR uses to carry directives, and the
    metadata keys the modern lowering emits. *)

(** Vitis-style directive markers (modelled after the [_ssdm_op_*]
    intrinsics Vitis HLS front-ends emit for pragmas). *)
let spec_pipeline = "_ssdm_op_SpecPipeline"

let spec_unroll = "_ssdm_op_SpecUnroll"
let spec_trip_count = "_ssdm_op_SpecLoopTripCount"

(** Modern loop-metadata keys translated by the adaptor. *)
let md_pipeline_enable = "llvm.loop.pipeline.enable"

let md_pipeline_ii = "llvm.loop.pipeline.ii"
let md_unroll_count = "llvm.loop.unroll.count"
let md_unroll_full = "llvm.loop.unroll.full"
let md_tripcount = "llvm.loop.tripcount"

let is_loop_md key = String.starts_with ~prefix:"llvm.loop." key

(** Interface / partition parameter-attribute keys. *)
let attr_interface = "fpga.interface"

let attr_partition_kind = "fpga.partition.kind"
let attr_partition_factor = "fpga.partition.factor"
let attr_partition_dim = "fpga.partition.dim"

(** Intrinsics a Vitis-era (LLVM 7) middle-end does not know. *)
let is_modern_intrinsic name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "llvm.smax."; "llvm.smin."; "llvm.umax."; "llvm.umin."; "llvm.abs.";
      "llvm.fmuladd."; "llvm.lifetime."; "llvm.assume"; "llvm.experimental." ]
