(** The kernel zoo: PolyBench-style workloads expressed as MHIR
    builders, each with a scalar reference implementation for cosim.

    Builder internals (attribute plumbing, the shared matmul emitter)
    are not exported — construct kernels through the named
    constructors and drive them via the [build] field. *)

type strategy = Inner | Middle

val all_strategies : strategy list

(** The name flags, requests, manifests, cache keys and DSE labels
    spell the strategy with. *)
val strategy_name : strategy -> string

val strategy_of_name : string -> strategy option

(** Directive bundle applied when building a kernel: where to pipeline
    ([strategy]), target II, unroll factor, and array partitioning as
    [(array, kind, factor, dim)]. *)
type directives = {
  pipeline_ii : int option;
  unroll : int option;
  strategy : strategy;
  partitions : (string * string * int * int) list;
}

(** [ARRAY:KIND:FACTOR:DIM], a partition's spelling in flags,
    manifests and cache keys. *)
val partition_to_string : string * string * int * int -> string

val partition_of_string : string -> (string * string * int * int) option

(** Unpipelined: what a manifest line starts from. *)
val no_directives : directives
val pipelined : directives
val optimized : ?factor:int -> parts:(string * int) list -> unit -> directives

type kernel = {
  kname : string;
  description : string;
  args : (string * int list) list;  (** argument name and dims *)
  outputs : string list;
  build : directives -> Mhir.Ir.modul;
  reference : float array list -> unit;
}

(** [Ok ()] when the estimator can honour every partition: the array
    is one of the kernel's [args], the kind is cyclic, block or
    complete, the factor at least 1 and the dim within the array's
    rank.  Otherwise an [Error] naming the first that is not. *)
val check_partitions :
  kernel -> (string * string * int * int) list -> (unit, string) result

val gemm : unit -> kernel
val mm2 : unit -> kernel
val mm3 : unit -> kernel
val atax : unit -> kernel
val bicg : unit -> kernel
val mvt : unit -> kernel
val gesummv : unit -> kernel
val fir : unit -> kernel
val conv2d : unit -> kernel
val jacobi2d : unit -> kernel
val syrk : unit -> kernel
val doitgen : unit -> kernel
val seidel2d : unit -> kernel
val mmcall : unit -> kernel

(** Every kernel, each at its one fixed problem size. *)
val all : unit -> kernel list

val by_name : string -> kernel option
