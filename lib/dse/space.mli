(** First-class design-space description, derived from kernel metadata
    (per-loop pipeline/unroll axes and per-array partition axes read
    off the kernel's own IR, not a hand-written list). *)

type partition_axis = {
  pa_array : string;  (** argument name *)
  pa_dim : int;  (** 1-based partitioned dimension *)
  pa_factors : int list;  (** ascending, starts with 1 = off *)
}

type t = {
  sp_strategies : Workloads.Kernels.strategy list;
  sp_scheds : Hls_backend.Backend.sched list;
      (** estimation backends on the axis *)
  sp_iis : int list;  (** ascending; 0 = no pipeline directive *)
  sp_unrolls : int list;  (** ascending; 1 = off *)
  sp_partitions : partition_axis list;  (** sorted by array name *)
}

(** One point of the space. *)
type config = {
  c_strategy : Workloads.Kernels.strategy;
  c_sched : Hls_backend.Backend.sched;
      (** which backend estimates this point *)
  c_ii : int;  (** 0 = off *)
  c_unroll : int;  (** 1 = off *)
  c_parts : (string * int) list;
      (** array → factor (1 = off); same order as [sp_partitions] *)
}

(** Kernel arguments whose backing storage some access in the adapted
    LLVM IR may alias without being attributable to them (lint HLS008
    territory): {!of_kernel} derives no partition axis for these.
    Sorted, deduplicated; empty when the frontend fails. *)
val may_aliased_arrays : Workloads.Kernels.kernel -> string list

(** Derive the space for a kernel by walking its directive-free IR.
    Arrays in {!may_aliased_arrays} get no partition axis.  [scheds]
    is the estimation-backend axis (sorted, deduplicated; default
    static only, which keeps the historical space byte-identical —
    same size, same labels). *)
val of_kernel :
  ?scheds:Hls_backend.Backend.sched list -> Workloads.Kernels.kernel -> t

(** Collapse directive aliases to one representative (under [Middle]
    the unroll axis is moot and II defaults to 1); sorts partition
    entries.  Idempotent. *)
val canonical : config -> config

(** Canonical, injective label — the dedup key and job label.  Static
    points keep the historical labels; dynamic points get ["-dyn"]. *)
val describe : config -> string

(** Directives that build this point's IR. *)
val to_directives : t -> config -> Workloads.Kernels.directives

(** The legacy fixed 8-point grid expressed in this space, replicated
    per backend on the axis (canonicalized, deduplicated, sorted).
    Seeding the archive with these guarantees the new frontier weakly
    dominates the old one. *)
val seeds : t -> config list

(** One-axis neighborhood: strategy flip, backend flip (multi-backend
    spaces only), one II step, one unroll step, one factor step on one
    array.  Canonical, deduplicated, self excluded, sorted by
    {!describe}. *)
val neighbors : t -> config -> config list

(** Every point (canonical forms, sorted by {!describe}). *)
val enumerate : t -> config list

(** Number of distinct canonical points, [List.length (enumerate sp)],
    counted from the axes without enumerating them. *)
val size : t -> int
