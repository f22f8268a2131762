(** The [mhlsc serve] daemon loop: a single-threaded select reactor
    providing admission control (bounded queue, [busy] rejection),
    request coalescing (identical queued or in-flight requests share
    one evaluation), response memoization (a reply is encoded once, on
    the worker, and a memo hit costs the reactor a hash and a head of a
    few dozen bytes), concurrent group evaluation on an injected
    executor with per-kind budgets and round-robin fairness,
    cancellation of groups whose waiters all disconnected, non-blocking
    per-connection write queues (a slow reader stalls only itself; a
    queue holds each reply's bytes by reference, never a copy, and more
    than 64 MiB unsent stops reading that connection until it is back
    under), a connection cap below FD_SETSIZE, soft resident-memory
    shedding, and per-kind latency statistics over bounded rings.  All
    compiler knowledge is injected through the {!dispatch} callback, so
    this module depends only on {!Protocol}. *)

(** How one request becomes a payload.  The hook receives pass events
    for streaming clients; implementations should forward it into the
    flows they run.  Under a concurrent executor the dispatcher runs
    on worker domains — it must be safe to call from several domains
    at once. *)
type dispatch =
  trace:Support.Tracing.hook ->
  Protocol.request ->
  (Protocol.payload, Support.Diag.t list) result

type config = {
  socket_path : string option;  (** Unix-domain listener *)
  tcp_port : int option;  (** loopback TCP listener *)
  queue_max : int;  (** admission-control bound *)
  budgets : (string * int) list;
      (** per-kind concurrent-evaluation bounds (clamped to ≥ 1);
          kinds not listed get 4 *)
  max_rss_mb : int option;
      (** soft resident-memory cap: above it the response memo and
          latency rings are shed after a completion *)
  log : string -> unit;  (** daemon-side progress lines *)
}

(** [mhlsc.sock], no TCP, queue bound 64, budgets [dse=1, fuzz=1]
    (default 4), no memory cap, silent. *)
val default_config : config

(** Run the daemon until a [shutdown] request arrives; raises
    [Invalid_argument] if the config names no listener at all.
    [counters] reports the driver result-cache (hits, misses) for
    [stats]; [ready] fires once the listeners are bound (tests and
    scripts use it to know when to connect); [exec] runs one group
    evaluation on a worker ({!Mhls_driver.Driver.background} in the
    real daemon) and returns [false] to decline, in which case the
    reactor evaluates inline — the default reproduces the old
    sequential drain.  Returns [Error] carrying an
    {!Protocol.rule_socket_in_use} diagnostic, without unlinking
    anything, when the socket path is owned by a live daemon; stale
    leftover sockets are removed and startup proceeds.  On shutdown
    the queued replies are written for up to 5 s; on [Ok] return the
    listeners are closed and the socket file removed. *)
val serve :
  ?config:config ->
  ?counters:(unit -> int * int) ->
  ?ready:(unit -> unit) ->
  ?exec:((unit -> unit) -> bool) ->
  dispatch:dispatch ->
  unit ->
  (unit, Support.Diag.t list) result
