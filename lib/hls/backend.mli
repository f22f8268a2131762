(** The HLS estimator: one loop-nest walk that times the top function
    of an adapted module under a scheduling discipline and prices it
    into an {!Estimate.report}. *)

(** A scheduling discipline.  [Static] is the Vitis-style list
    scheduler; [Dynamic] is a Dynamatic-style elastic dataflow
    circuit. *)
type sched = Static | Dynamic

(** Wire/cache-key name of a discipline: ["static"] / ["dynamic"]. *)
val sched_name : sched -> string

val sched_of_name : string -> sched option
val all_scheds : sched list

(** Elastic-channel geometry used for FIFO costing under [Dynamic]. *)
val channel_bits : int

val channel_depth : int

(** Estimate the top function under [sched] (default [Static]).  The
    CFG, loop nest and function index come from [?am], the compile
    job's analysis manager (a fresh one without it).
    @raise Estimate.Rejected when the module is not synthesizable. *)
val synthesize :
  ?clock_ns:float ->
  ?sched:sched ->
  ?am:Llvmir.Analysis.t ->
  top:string ->
  Llvmir.Lmodule.t ->
  Estimate.report
