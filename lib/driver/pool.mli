(** Worker pool over OCaml 5 domains: a one-shot {!map} and a live
    {!create}/{!run}/{!shutdown} pool reused across batches.  Both
    preserve input order and run inline when [jobs <= 1]. *)

(** [map ~jobs f xs] applies [f] on up to [jobs] domains, preserving
    input order.  [f] should not raise. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** A reasonable default worker count for this machine. *)
val default_jobs : unit -> int

(** Fanout record for {!Llvmir.Pass.run_pipeline_parallel}: this
    pool's {!map}. *)
val fanout : jobs:int -> Llvmir.Pass.fanout

(** A live pool: workers are spawned once and reused by every {!run}. *)
type t

(** [create ~jobs ()] spawns the workers ([jobs <= 1] means inline, no
    domains); the count is clamped to the hardware unless
    [~oversubscribe:true], which trades GC-coordination throughput for
    concurrency-for-latency (the serve reactor's trade: a short job
    must be able to overtake a long one even on few cores). *)
val create : ?oversubscribe:bool -> jobs:int -> unit -> t

(** Number of worker domains actually running (1 when inline). *)
val size : t -> int

(** [run p f xs] evaluates the batch on the pool, blocking until done;
    input order preserved, results independent of worker count.  A
    task's exception is re-raised here after the batch drains.
    @raise Invalid_argument after {!shutdown}. *)
val run : t -> ('a -> 'b) -> 'a list -> 'b list

(** [submit p task] enqueues [task] on a worker without blocking and
    without joining any batch accounting; [false] (nothing enqueued)
    on an inline or stopped pool — run the thunk yourself.  [task]
    must not call {!run} with a multi-element batch on the same
    pool (deadlock when all workers are busy); single-element
    batches run inline and are safe. *)
val submit : t -> (unit -> unit) -> bool

(** Stop the workers and join their domains.  Idempotent. *)
val shutdown : t -> unit
