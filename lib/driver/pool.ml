(** Worker pool over OCaml 5 domains.

    Two entry points share the machinery:

    - {!map} — the one-shot path: spawn up to [jobs] domains, apply a
      function to every element, join.  Work items are claimed from a
      shared atomic counter, so the pool load-balances automatically.
    - {!create}/{!run}/{!shutdown} — the {e live}-pool path used by the
      incremental driver session: workers are spawned once, block on a
      condition variable between batches, and successive {!run} calls
      reuse them.  A search loop that submits a small batch per round
      does not pay a domain-spawn per round.

    Both paths preserve input order in the result and run inline on the
    calling domain when [jobs <= 1] — the sequential reference used by
    the determinism tests. *)

(* ------------------------------------------------------------------ *)
(* One-shot map                                                       *)
(* ------------------------------------------------------------------ *)

(** [map ~jobs f xs] applies [f] to every element of [xs], on up to
    [jobs] domains, preserving input order in the result.  [f] should
    not raise: an exception in a worker tears down the whole pool (it
    is re-raised by [Domain.join]).  Like {!create}, the worker count
    is clamped to the hardware: on a single-core machine the map runs
    inline, since extra domains only add stop-the-world GC
    coordination. *)
let map ~(jobs : int) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  let jobs = min jobs (Domain.recommended_domain_count ()) in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let output = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      (* Allocation-heavy work items make the default (256k-word)
         minor heap the bottleneck: every domain's minor collection is
         a stop-the-world sync, so at 4+ domains the pool spends its
         speedup waiting on barriers.  A larger per-domain minor heap
         trades a few MB per worker for an ~4x lower barrier rate;
         workers are short-lived, the setting dies with the domain. *)
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1024 * 1024 };
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          output.(i) <- Some (f input.(i));
          go ()
        end
      in
      go ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) output)
  end

(** A reasonable default worker count for this machine. *)
let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(** Fanout record handed to {!Llvmir.Pass.run_pipeline_parallel}: the
    pool's {!map}.  Lives here because [llvmir] sits below this pool in
    the layering. *)
let fanout ~(jobs : int) : Llvmir.Pass.fanout =
  { Llvmir.Pass.jobs; map = (fun f xs -> map ~jobs f xs) }

(* ------------------------------------------------------------------ *)
(* Live pool                                                          *)
(* ------------------------------------------------------------------ *)

(** A queued unit of work.  [t_batch] tasks belong to a blocking
    {!run} batch and participate in its [pending] accounting;
    {!submit}ted tasks do not — a worker must never signal
    [batch_done] for them, or a concurrent {!run} would return with
    slots still unfilled. *)
type task = { t_run : unit -> unit; t_batch : bool }

type t = {
  jobs : int;  (** worker-domain count; 0 = inline sequential pool *)
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  queue : task Queue.t;
  mutable pending : int;  (** batch tasks queued or running *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let worker (p : t) () =
  let rec loop () =
    Mutex.lock p.mutex;
    while Queue.is_empty p.queue && not p.stopping do
      Condition.wait p.work_available p.mutex
    done;
    if Queue.is_empty p.queue then (* stopping *)
      Mutex.unlock p.mutex
    else begin
      let task = Queue.pop p.queue in
      Mutex.unlock p.mutex;
      task.t_run ();
      if task.t_batch then begin
        Mutex.lock p.mutex;
        p.pending <- p.pending - 1;
        if p.pending = 0 then Condition.broadcast p.batch_done;
        Mutex.unlock p.mutex
      end;
      loop ()
    end
  in
  loop ()

(** [create ~jobs] spawns a pool of [min jobs (recommended - 1)]
    worker domains (at least 0: with [jobs <= 1] no domain is spawned
    and {!run} executes inline).  By default the pool never
    oversubscribes the hardware — OCaml 5 minor collections are
    stop-the-world across domains, so excess domains make
    allocation-heavy workloads {e slower}.  [~oversubscribe:true]
    lifts that clamp (still bounded by [max 16 recommended]): the
    serve reactor wants concurrency-for-latency — a short compile
    overtaking a long DSE sweep — which the OS scheduler provides by
    timeslicing domains even on a single core. *)
let create ?(oversubscribe = false) ~(jobs : int) () : t =
  let jobs =
    if jobs <= 1 then 0
    else if oversubscribe then
      min jobs (max 16 (Domain.recommended_domain_count ()))
    else min jobs (max 1 (Domain.recommended_domain_count ()))
  in
  let p =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      stopping = false;
      domains = [];
    }
  in
  p.domains <- List.init jobs (fun _ -> Domain.spawn (worker p));
  p

(** Number of worker domains actually running (1 when inline). *)
let size (p : t) : int = max 1 p.jobs

(** [run p f xs] evaluates [f] on every element of [xs] on the pool's
    workers and blocks until the whole batch is done, preserving input
    order.  Results are independent of the worker count.  A task that
    raises poisons only its own slot: the exception is re-raised here
    after the batch drains, so the pool stays usable. *)
let run (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  if p.jobs = 0 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let output : ('b, exn) result option array = Array.make n None in
    let task i () =
      output.(i) <-
        Some (match f input.(i) with v -> Ok v | exception e -> Error e)
    in
    Mutex.lock p.mutex;
    if p.stopping then begin
      Mutex.unlock p.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.push { t_run = task i; t_batch = true } p.queue
    done;
    p.pending <- p.pending + n;
    Condition.broadcast p.work_available;
    while p.pending > 0 do
      Condition.wait p.batch_done p.mutex
    done;
    Mutex.unlock p.mutex;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         output)
  end

(** [submit p task] enqueues [task] for a worker domain without
    blocking; it runs whenever a worker frees up and its completion is
    never waited on here.  Returns [false] — and does {e not} enqueue —
    on an inline pool ([jobs <= 1]) or a stopped pool, so the caller
    knows to run the thunk itself.  [task] must not call {!run} with a
    multi-element batch on this same pool: with every worker busy
    executing submitted tasks, the nested batch would deadlock.
    (Single-element batches are safe — {!run} executes those inline.) *)
let submit (p : t) (task : unit -> unit) : bool =
  if p.jobs = 0 then false
  else begin
    Mutex.lock p.mutex;
    let accepted = not p.stopping in
    if accepted then begin
      Queue.push { t_run = task; t_batch = false } p.queue;
      Condition.signal p.work_available
    end;
    Mutex.unlock p.mutex;
    accepted
  end

(** Stop the workers and join their domains.  Idempotent. *)
let shutdown (p : t) : unit =
  Mutex.lock p.mutex;
  p.stopping <- true;
  Condition.broadcast p.work_available;
  Mutex.unlock p.mutex;
  List.iter Domain.join p.domains;
  p.domains <- []
