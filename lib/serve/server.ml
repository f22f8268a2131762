(** The [mhlsc serve] daemon loop.

    A single-threaded {!Unix.select} reactor over one Unix-domain
    listener (and optionally a loopback TCP listener).  The expensive
    state — interner, analysis caches, the driver's domain pool and
    content-addressed result cache — lives in the {e dispatcher}
    closure the caller passes in, so it stays warm across requests;
    this module does admission control, coalescing, response
    memoization, scheduling and bookkeeping:

    + {b admission control}: at most [queue_max] requests may be
      queued; beyond that a request is answered [busy] (with the
      current depth) instead of queueing unboundedly;
    + {b coalescing}: all requests with the same
      {!Protocol.request_key} — queued {e or already evaluating} —
      share a single dispatcher evaluation: one compile, N responses;
    + {b memoization}: successful replies are remembered by request
      key, so a resubmitted identical request is served without
      re-entering the dispatcher at all.  The worker that produces a
      reply encodes it once ({!Protocol.encode_reply}); the memo and
      every coalesced waiter share those bytes, and the key reuses the
      decoded source ({!Protocol.request_key}), so a memo hit costs the
      reactor a hash of the request and a few dozen bytes of head;
    + {b write queues}: replies and events leave through per-connection
      queues, written as far as the socket takes them and drained when
      [select] reports the socket writable; client sockets are
      non-blocking, so a client that reads slowly stalls only itself.
      A reply is queued as its small head ({!Protocol.response_head})
      and the shared encoded reply, never a copy, so a queue holds
      about a hundred bytes per reply it owes beyond the replies'
      shared bytes.  A connection with more than [max_frame_bytes]
      unsent is not read until it drops below that (back-pressure), and
      shutdown flushes what is queued for up to {!shutdown_flush_s}
      seconds;
    + {b connection cap}: [select] cannot watch a descriptor at or
      above FD_SETSIZE, so a connection accepted on one at or above
      {!client_fd_cap} is closed at once;
    + {b concurrency}: request groups evaluate on an injected executor
      (the driver's domain pool) while the select loop keeps reading,
      writing and accepting.  Workers never touch client sockets —
      events and completions travel through a mutex-protected mailbox
      whose self-pipe wakes [select] — so frames cannot interleave;
    + {b budgets}: at most [budget kind] groups of one kind evaluate
      at once (DSE sweeps are heavy, compiles are light), so a burst
      of sweeps cannot monopolize the pool;
    + {b fairness}: queued groups are picked round-robin across
      connections, so one chatty client cannot starve the rest;
    + {b cancellation}: a queued group whose waiters have all
      disconnected is dropped before it ever starts; events and
      replies of an already-running group go only to waiters still
      connected;
    + {b shedding}: with [max_rss_mb] set, the response memo and the
      latency rings are dropped when resident memory crosses the cap —
      the daemon degrades to re-evaluating instead of being OOM-killed;
    + {b streaming}: requests sent with ["stream": true] receive pass
      events (re-emitted from the {!Support.Tracing} hook) before
      their response.

    The loop owns no compiler knowledge: [Stats], [Ping] and
    [Shutdown] are handled here, everything else goes through the
    injected dispatcher.  That keeps the dependency arrow pointing one
    way — the CLI handler library depends on the protocol, never the
    reverse. *)

module Diag = Support.Diag
module P = Protocol

(** How one request becomes a payload.  The hook receives pass events
    for streaming clients; implementations should forward it into the
    flows they run.  Under a concurrent executor the dispatcher runs
    on worker domains, so it must not share mutable state with other
    invocations (the bundled handlers qualify: the driver session and
    cache are domain-safe). *)
type dispatch =
  trace:Support.Tracing.hook ->
  P.request ->
  (P.payload, Diag.t list) result

type config = {
  socket_path : string option;  (** Unix-domain listener *)
  tcp_port : int option;  (** loopback TCP listener *)
  queue_max : int;  (** admission-control bound *)
  budgets : (string * int) list;
      (** per-kind concurrent-evaluation bounds; kinds not listed get
          {!default_budget} *)
  max_rss_mb : int option;
      (** soft resident-memory cap: shed memo + latency rings above it *)
  log : string -> unit;  (** daemon-side progress lines *)
}

(** Concurrent evaluations of a kind that [budgets] does not list. *)
let default_budget = 4

let default_config =
  {
    socket_path = Some "mhlsc.sock";
    tcp_port = None;
    queue_max = 64;
    (* DSE and fuzz fan out internally — one of each at a time is
       plenty; everything else is a single compile-sized job. *)
    budgets = [ ("dse", 1); ("fuzz", 1) ];
    max_rss_mb = None;
    log = ignore;
  }

(* ------------------------------------------------------------------ *)
(* Bounded latency rings                                              *)
(* ------------------------------------------------------------------ *)

(** Last [ring_capacity] samples per kind.  A long-lived daemon must
    not keep every latency sample ever recorded: the old per-kind
    [float list ref] grew without bound. *)
let ring_capacity = 4096

type ring = {
  r_buf : float array;
  mutable r_len : int;
  mutable r_pos : int;  (** next write slot *)
}

let ring_create () =
  { r_buf = Array.make ring_capacity 0.0; r_len = 0; r_pos = 0 }

let ring_push (r : ring) (v : float) =
  r.r_buf.(r.r_pos) <- v;
  r.r_pos <- (r.r_pos + 1) mod ring_capacity;
  if r.r_len < ring_capacity then r.r_len <- r.r_len + 1

let ring_clear (r : ring) =
  r.r_len <- 0;
  r.r_pos <- 0

let ring_snapshot (r : ring) : float array = Array.sub r.r_buf 0 r.r_len

(* ------------------------------------------------------------------ *)
(* Internal state                                                     *)
(* ------------------------------------------------------------------ *)

type pending = {
  pd_fd : Unix.file_descr;
  pd_id : int;
  pd_stream : bool;
  pd_req : P.request;
  pd_key : P.key option;
  pd_arrival : float;  (** {!Support.Tracing.now} at intake *)
}

(** A coalesced request group: one evaluation, [g_waiters] responses.
    Queued groups live in their owner connection's ready list (for
    round-robin fairness); running groups live in the in-flight
    table.  [g_waiters] is newest-first; replies reverse it back to
    arrival order. *)
type group = {
  g_id : int;
  g_key : P.key option;
  g_kind : string;
  g_req : P.request;
  g_stream : bool;  (** any waiter asked for events when it started *)
  mutable g_waiters : pending list;
}

type client = {
  c_fd : Unix.file_descr;
  c_frames : P.assembler;  (** the partial frame read so far *)
  mutable c_ready : group list;  (** queued groups owned here, FIFO *)
  c_out : string Queue.t;
      (** strings not yet written, oldest first; a reply's bytes are
          the memo's and every waiter's, never copied *)
  mutable c_sent : int;  (** bytes of the oldest string already written *)
  mutable c_unsent : int;
      (** bytes in [c_out] not yet written; above [max_frame_bytes] the
          connection is not read *)
}

(** Worker → reactor messages.  Workers never write to client fds —
    a worker-side write would interleave with reactor frames and
    corrupt the length-prefixed stream — so everything they produce
    funnels through here and is forwarded on the reactor domain. *)
type msg =
  | M_event of int * Support.Tracing.event  (** group id, pass event *)
  | M_done of int * P.encoded_reply * bool
      (** group id, final reply, whether it is a success (memoized) *)

type state = {
  cfg : config;
  dispatch : dispatch;
  counters : unit -> int * int;  (** driver cache (hits, misses) *)
  exec : (unit -> unit) -> bool;
      (** run a thunk on a worker; [false] = run it inline *)
  clients : (Unix.file_descr, client) Hashtbl.t;
  chunk : Bytes.t;  (** the reactor's read buffer, shared by all clients *)
  mutable rr : Unix.file_descr list;
      (** round-robin pick order; a client moves to the back after a
          group of theirs is started *)
  by_key : group P.Key_table.t;  (** queued or running groups *)
  inflight : (int, group) Hashtbl.t;  (** running groups by group id *)
  running_kinds : (string, int) Hashtbl.t;  (** in-flight count per kind *)
  mutable next_group : int;
  memo : P.encoded_reply P.Key_table.t;
  latency : (string, ring) Hashtbl.t;  (** kind → ms samples *)
  mutable served : int;
  mutable evaluated : int;
  mutable coalesced : int;
  mutable memo_hits : int;
  mutable busy : int;
  mutable cancelled : int;
  mutable shed : int;
  mb_mutex : Mutex.t;
  mutable mb_msgs : msg list;  (** newest-first *)
  wake_r : Unix.file_descr;  (** self-pipe: wakes [select] on post *)
  wake_w : Unix.file_descr;  (** non-blocking write end *)
  mutable running : bool;
}

let record_latency (st : state) (kind : string) (ms : float) =
  match Hashtbl.find_opt st.latency kind with
  | Some r -> ring_push r ms
  | None ->
      let r = ring_create () in
      ring_push r ms;
      Hashtbl.add st.latency kind r

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let latency_stats (st : state) : P.latency_stat list =
  Hashtbl.fold (fun kind r acc -> (kind, ring_snapshot r) :: acc) st.latency []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (kind, a) ->
         Array.sort Float.compare a;
         {
           P.ls_kind = kind;
           ls_count = Array.length a;
           ls_p50_ms = percentile a 50.0;
           ls_p99_ms = percentile a 99.0;
         })

(** Waiters in not-yet-started groups — the admission-control depth.
    Riders coalesced onto a running group are not queued work. *)
let queue_depth (st : state) : int =
  Hashtbl.fold
    (fun _ c acc ->
      List.fold_left
        (fun acc g -> acc + List.length g.g_waiters)
        acc c.c_ready)
    st.clients 0

let budget_of (st : state) (kind : string) : int =
  match List.assoc_opt kind st.cfg.budgets with
  | Some n -> max 1 n
  | None -> default_budget

let running_of (st : state) (kind : string) : int =
  Option.value (Hashtbl.find_opt st.running_kinds kind) ~default:0

let stats_payload (st : state) : P.payload =
  let hits, misses = st.counters () in
  P.R_stats
    {
      P.st_served = st.served;
      st_evaluated = st.evaluated;
      st_coalesced = st.coalesced;
      st_memo_hits = st.memo_hits;
      st_busy = st.busy;
      st_cache_hits = hits;
      st_cache_misses = misses;
      st_queue_depth = queue_depth st;
      st_queue_max = st.cfg.queue_max;
      st_inflight = Hashtbl.length st.inflight;
      st_running =
        Hashtbl.fold (fun k n acc -> if n > 0 then (k, n) :: acc else acc)
          st.running_kinds []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b);
      st_cancelled = st.cancelled;
      st_shed = st.shed;
      st_latency = latency_stats st;
    }

(* ------------------------------------------------------------------ *)
(* Mailbox and self-pipe                                              *)
(* ------------------------------------------------------------------ *)

(** Post from any domain.  The wake byte is best-effort: if the pipe
    is full the reactor is already due to wake, and if the pipe is
    gone the loop has exited and the message will never be read. *)
let post (st : state) (m : msg) =
  Mutex.lock st.mb_mutex;
  st.mb_msgs <- m :: st.mb_msgs;
  Mutex.unlock st.mb_mutex;
  try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let drain_wake (st : state) =
  let b = Bytes.create 1024 in
  match Unix.read st.wake_r b 0 (Bytes.length b) with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let take_messages (st : state) : msg list =
  Mutex.lock st.mb_mutex;
  let ms = List.rev st.mb_msgs in
  st.mb_msgs <- [];
  Mutex.unlock st.mb_mutex;
  ms

(* ------------------------------------------------------------------ *)
(* Client IO                                                          *)
(* ------------------------------------------------------------------ *)

(** Remove a connection.  Queued groups owned by this connection are
    re-owned by a surviving waiter, or cancelled outright when every
    waiter is gone — the whole point of tracking waiters: work nobody
    is listening for must not occupy a budget slot. *)
let rec drop_client (st : state) (fd : Unix.file_descr) =
  match Hashtbl.find_opt st.clients fd with
  | None -> ()
  | Some c ->
      Hashtbl.remove st.clients fd;
      st.rr <- List.filter (fun f -> f <> fd) st.rr;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let orphans = c.c_ready in
      c.c_ready <- [];
      List.iter
        (fun g ->
          g.g_waiters <-
            List.filter (fun p -> Hashtbl.mem st.clients p.pd_fd) g.g_waiters;
          match g.g_waiters with
          | [] -> cancel_group st g
          | p :: _ -> (
              match Hashtbl.find_opt st.clients p.pd_fd with
              | Some c' -> c'.c_ready <- c'.c_ready @ [ g ]
              | None -> cancel_group st g))
        orphans

and cancel_group (st : state) (g : group) =
  (match g.g_key with
  | Some k -> P.Key_table.remove st.by_key k
  | None -> ());
  st.cancelled <- st.cancelled + 1;
  st.cfg.log
    (Printf.sprintf "cancelled %s group #%d (all waiters gone)" g.g_kind
       g.g_id)

(** Write the client's queue until it is empty or the socket takes no
    more ([select] reports when it does).  A broken pipe or any other
    error drops the client. *)
let rec flush (st : state) (c : client) =
  match Queue.peek_opt c.c_out with
  | None -> ()
  | Some s -> (
      let want = String.length s - c.c_sent in
      match Unix.write_substring c.c_fd s c.c_sent want with
      | n ->
          c.c_unsent <- c.c_unsent - n;
          if n < want then c.c_sent <- c.c_sent + n
          else begin
            ignore (Queue.pop c.c_out);
            c.c_sent <- 0;
            flush st c
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush st c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> drop_client st c.c_fd)

(** Queue the strings of one frame and write what the socket takes now;
    the rest leaves as [select] finds the socket writable, so a client
    that reads slowly never stalls the reactor.  The strings are queued
    as they are, not copied.  Frames for a vanished client are simply
    discarded — this is also what suppresses replies and events of a
    group whose waiter left. *)
let send (st : state) (fd : Unix.file_descr) (parts : string list) =
  match Hashtbl.find_opt st.clients fd with
  | None -> ()
  | Some c ->
      let idle = Queue.is_empty c.c_out in
      List.iter
        (fun s ->
          Queue.push s c.c_out;
          c.c_unsent <- c.c_unsent + String.length s)
        parts;
      if idle then flush st c

(** The clients with bytes still queued. *)
let writers (st : state) : Unix.file_descr list =
  Hashtbl.fold
    (fun fd c acc -> if Queue.is_empty c.c_out then acc else fd :: acc)
    st.clients []

let flush_writable (st : state) (fds : Unix.file_descr list) =
  List.iter
    (fun fd -> Option.iter (flush st) (Hashtbl.find_opt st.clients fd))
    fds

let respond (st : state) (fd : Unix.file_descr) (id : int)
    (r : P.encoded_reply) =
  send st fd [ P.response_head ~id r; (r :> string) ]

let reply_now (st : state) (p : pending) (r : P.encoded_reply) =
  st.served <- st.served + 1;
  record_latency st
    (P.request_kind p.pd_req)
    ((Support.Tracing.now () -. p.pd_arrival) *. 1000.0);
  respond st p.pd_fd p.pd_id r

(* ------------------------------------------------------------------ *)
(* Memory shedding                                                    *)
(* ------------------------------------------------------------------ *)

(** Resident set size in MiB from /proc/self/statm ([None] where no
    procfs).  Page size is taken as 4 KiB — the only size Linux uses
    on the platforms this daemon targets. *)
let rss_mb () : int option =
  match
    In_channel.with_open_text "/proc/self/statm" In_channel.input_line
  with
  | Some line -> (
      match String.split_on_char ' ' line with
      | _ :: resident :: _ ->
          Option.map
            (fun pages -> pages * 4096 / (1024 * 1024))
            (int_of_string_opt resident)
      | _ -> None)
  | None -> None
  | exception Sys_error _ -> None

(** Soft-cap enforcement, checked after each completion: above the
    cap, drop the response memo and the latency rings (the only
    unbounded-ish state this module owns) and count a shed.  The
    daemon keeps serving — identical requests just re-evaluate. *)
let maybe_shed (st : state) =
  match st.cfg.max_rss_mb with
  | None -> ()
  | Some cap ->
      let have_state =
        P.Key_table.length st.memo > 0
        || Hashtbl.fold (fun _ r acc -> acc || r.r_len > 0) st.latency false
      in
      if have_state then (
        match rss_mb () with
        | Some mb when mb > cap ->
            st.shed <- st.shed + 1;
            st.cfg.log
              (Printf.sprintf
                 "rss %d MiB over cap %d MiB: shedding %d memo entries and \
                  latency rings"
                 mb cap (P.Key_table.length st.memo));
            P.Key_table.reset st.memo;
            Hashtbl.iter (fun _ r -> ring_clear r) st.latency
        | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* Group completion (reactor side)                                    *)
(* ------------------------------------------------------------------ *)

let forward_event (st : state) (gid : int) (ev : Support.Tracing.event) =
  match Hashtbl.find_opt st.inflight gid with
  | None -> ()
  | Some g ->
      List.iter
        (fun p ->
          if p.pd_stream then
            send st p.pd_fd
              [ P.encode_frame (P.Event { P.e_id = p.pd_id; e_event = ev }) ])
        (List.rev g.g_waiters)

let complete (st : state) (gid : int) (reply : P.encoded_reply) (ok : bool) =
  match Hashtbl.find_opt st.inflight gid with
  | None -> ()
  | Some g ->
      Hashtbl.remove st.inflight gid;
      Hashtbl.replace st.running_kinds g.g_kind
        (max 0 (running_of st g.g_kind - 1));
      (match g.g_key with
      | Some k ->
          P.Key_table.remove st.by_key k;
          if ok then P.Key_table.replace st.memo k reply
      | None -> ());
      List.iter
        (fun p ->
          if Hashtbl.mem st.clients p.pd_fd then reply_now st p reply)
        (List.rev g.g_waiters);
      maybe_shed st

let process_mailbox (st : state) =
  List.iter
    (function
      | M_event (gid, ev) -> forward_event st gid ev
      | M_done (gid, reply, ok) -> complete st gid reply ok)
    (take_messages st)

(* ------------------------------------------------------------------ *)
(* Scheduling                                                         *)
(* ------------------------------------------------------------------ *)

(** Move a group to the in-flight table and hand its evaluation to the
    executor.  Returns [true] when the executor declined and the thunk
    ran inline (its completion is already in the mailbox). *)
let start_group (st : state) (g : group) : bool =
  Hashtbl.replace st.inflight g.g_id g;
  Hashtbl.replace st.running_kinds g.g_kind (running_of st g.g_kind + 1);
  st.evaluated <- st.evaluated + 1;
  let gid = g.g_id and req = g.g_req and streamed = g.g_stream in
  let dispatch = st.dispatch in
  let thunk () =
    let trace =
      if streamed then fun ev -> post st (M_event (gid, ev))
      else Support.Tracing.null
    in
    let reply =
      match dispatch ~trace req with
      | Ok payload -> P.Done payload
      | Error ds -> P.Failed ds
      | exception exn ->
          P.Failed
            [
              Diag.error ~rule:"HLS000" "internal dispatcher failure: %s"
                (Printexc.to_string exn);
            ]
    in
    (* encoded here, once, off the reactor *)
    let ok =
      match reply with P.Done _ -> true | P.Failed _ | P.Busy _ -> false
    in
    post st (M_done (gid, P.encode_reply reply, ok))
  in
  if st.exec thunk then false
  else begin
    thunk ();
    true
  end

(** Start the first group in [c]'s queue whose kind has budget,
    pruning groups whose waiters all disconnected along the way
    (cancellation-before-start). *)
let try_client (st : state) (c : client) : [ `Started of bool | `None ] =
  let rec go skipped = function
    | [] ->
        c.c_ready <- List.rev skipped;
        `None
    | g :: rest ->
        g.g_waiters <-
          List.filter (fun p -> Hashtbl.mem st.clients p.pd_fd) g.g_waiters;
        if g.g_waiters = [] then begin
          cancel_group st g;
          go skipped rest
        end
        else if running_of st g.g_kind < budget_of st g.g_kind then begin
          c.c_ready <- List.rev_append skipped rest;
          `Started (start_group st g)
        end
        else go (g :: skipped) rest
  in
  go [] c.c_ready

(** Round-robin scheduler: sweep connections in [rr] order, starting
    at most one group per connection per sweep and rotating a served
    connection to the back, until nothing more can start (budgets
    exhausted or queues empty).  Inline completions (sequential
    executor) are processed and the sweep retried, so the inline
    daemon drains exactly like the old synchronous one. *)
let rec pump (st : state) =
  let inline_ran = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt st.clients fd with
        | None -> ()
        | Some c -> (
            match try_client st c with
            | `Started inline ->
                progress := true;
                inline_ran := !inline_ran || inline;
                st.rr <- List.filter (fun f -> f <> fd) st.rr @ [ fd ]
            | `None -> ()))
      st.rr
  done;
  if !inline_ran then begin
    process_mailbox st;
    pump st
  end

(* ------------------------------------------------------------------ *)
(* Request intake                                                     *)
(* ------------------------------------------------------------------ *)

let enqueue (st : state) (fd : Unix.file_descr) ~id ~stream
    (req : P.request) =
  let now = Support.Tracing.now () in
  let p =
    {
      pd_fd = fd;
      pd_id = id;
      pd_stream = stream;
      pd_req = req;
      pd_key = P.request_key req;
      pd_arrival = now;
    }
  in
  match req with
  | P.Ping -> reply_now st p (P.encode_reply (P.Done P.R_pong))
  | P.Stats -> reply_now st p (P.encode_reply (P.Done (stats_payload st)))
  | P.Shutdown ->
      st.cfg.log "shutdown requested";
      reply_now st p (P.encode_reply (P.Done P.R_shutdown));
      st.running <- false
  | _ -> (
      match Option.bind p.pd_key (P.Key_table.find_opt st.memo) with
      | Some reply ->
          st.memo_hits <- st.memo_hits + 1;
          reply_now st p reply
      | None -> (
          match Option.bind p.pd_key (P.Key_table.find_opt st.by_key) with
          | Some g ->
              (* Queued or already evaluating: ride along. *)
              st.coalesced <- st.coalesced + 1;
              g.g_waiters <- p :: g.g_waiters
          | None -> (
              match Hashtbl.find_opt st.clients fd with
              | None -> ()  (* dropped earlier in this intake wave *)
              | Some c ->
                  if queue_depth st >= st.cfg.queue_max then begin
                    st.busy <- st.busy + 1;
                    respond st fd id (P.encode_reply (P.Busy (queue_depth st)))
                  end
                  else begin
                    let g =
                      {
                        g_id = st.next_group;
                        g_key = p.pd_key;
                        g_kind = P.request_kind req;
                        g_req = req;
                        g_stream = stream;
                        g_waiters = [ p ];
                      }
                    in
                    st.next_group <- st.next_group + 1;
                    (match p.pd_key with
                    | Some k -> P.Key_table.replace st.by_key k g
                    | None -> ());
                    c.c_ready <- c.c_ready @ [ g ]
                  end)))

let handle_frame (st : state) (fd : Unix.file_descr) = function
  | Ok (P.Request { q_id; q_stream; q_req }) ->
      enqueue st fd ~id:q_id ~stream:q_stream q_req
  | Ok (P.Response _ | P.Event _) ->
      respond st fd P.sentinel_id
        (P.encode_reply
           (P.Failed
              [ P.protocol_error "clients may only send request frames" ]))
  | Error msg ->
      respond st fd P.sentinel_id
        (P.encode_reply (P.Failed [ P.protocol_error "bad frame: %s" msg ]))

(** Read what's available on a client socket.  EINTR retries (a signal
    must not kill the daemon), EAGAIN is a spurious wakeup, and any
    other error drops just this client — never the reactor. *)
let rec read_client (st : state) (c : client) =
  match Unix.read c.c_fd st.chunk 0 (Bytes.length st.chunk) with
  | 0 -> drop_client st c.c_fd
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_client st c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop_client st c.c_fd
  | n -> (
      match P.feed c.c_frames st.chunk 0 n with
      | Error msg ->
          st.cfg.log (Printf.sprintf "dropping client: %s" msg);
          drop_client st c.c_fd
      | Ok frames -> List.iter (handle_frame st c.c_fd) frames)

(* ------------------------------------------------------------------ *)
(* Listeners and the reactor                                          *)
(* ------------------------------------------------------------------ *)

type socket_status = Absent | Stale | Live of string

(** Is anything still behind [path]?  A connect that succeeds proves a
    live listener (whether or not it answers ping); ECONNREFUSED
    proves a stale leftover from a dead daemon.  Anything else —
    permissions, weird file types — is treated as live: when in doubt,
    refuse to unlink. *)
let probe_socket (path : string) : socket_status =
  if not (Sys.file_exists path) then Absent
  else
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> (
            try
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
              P.write_frame fd
                (P.Request { q_id = 0; q_stream = false; q_req = P.Ping });
              match P.read_frame fd with
              | Ok (P.Response { r_reply = P.Done P.R_pong; _ }) ->
                  Live "a daemon answered ping"
              | Ok _ | Error _ -> Live "something is listening"
            with Unix.Unix_error _ | Sys_error _ ->
              Live "something is listening")
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          ->
            Stale
        | exception Unix.Unix_error (e, _, _) ->
            Live (Unix.error_message e))

(** Bind the Unix listener.  A live socket at [path] is an HLS906
    refusal — the old behavior unlinked unconditionally, silently
    hijacking a running daemon's clients; only provably stale sockets
    are removed. *)
let unix_listener ~(log : string -> unit) (path : string) :
    (Unix.file_descr, Diag.t list) result =
  match probe_socket path with
  | Live detail ->
      Error
        [
          Diag.error ~rule:P.rule_socket_in_use
            "socket '%s' is already in use: %s" path detail
            ~hint:
              "stop the running daemon with `mhlsc client --request \
               '{\"kind\": \"shutdown\"}'` or pass a different --socket";
        ]
  | Absent | Stale ->
      (match probe_socket path with
      | Stale ->
          log (Printf.sprintf "removing stale socket %s" path);
          (try Unix.unlink path with Unix.Unix_error _ -> ())
      | Absent | Live _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Ok fd

let tcp_listener (port : int) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(** [select] takes only descriptors below FD_SETSIZE (1024 on Linux)
    and fails with [EINVAL] on any other, so a connection accepted on a
    descriptor at or above this cap is closed at once.  Descriptors are
    handed out lowest first, so in a daemon process that holds few
    other files this caps the connections at about 1000. *)
let client_fd_cap = 1000

(* On Unix a descriptor is its number. *)
external fd_number : Unix.file_descr -> int = "%identity"

let rec accept_client (st : state) (lfd : Unix.file_descr) =
  match Unix.accept lfd with
  | fd, _ when fd_number fd >= client_fd_cap ->
      st.cfg.log
        (Printf.sprintf "closing a connection: descriptor %d is over the cap %d"
           (fd_number fd) client_fd_cap);
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | fd, addr ->
      Unix.set_nonblock fd;
      (* A reply leaves as two writes, its head and then its bytes; with
         Nagle's algorithm the second waits for the client's delayed
         acknowledgement of the first, about 40 ms. *)
      (match addr with
      | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
      | Unix.ADDR_UNIX _ -> ());
      Hashtbl.replace st.clients fd
        {
          c_fd = fd;
          c_frames = P.assembler ();
          c_ready = [];
          c_out = Queue.create ();
          c_sent = 0;
          c_unsent = 0;
        };
      st.rr <- st.rr @ [ fd ]
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_client st lfd
  | exception Unix.Unix_error _ -> ()

(** How long shutdown keeps writing what the queues still hold.  A
    client that has not taken its bytes by then is closed with the
    rest, so a stalled reader cannot keep the daemon alive. *)
let shutdown_flush_s = 5.0

let flush_queues (st : state) =
  let deadline = Support.Tracing.now () +. shutdown_flush_s in
  let rec go () =
    let waiting = writers st and left = deadline -. Support.Tracing.now () in
    if waiting <> [] && left > 0.0 then begin
      (match Unix.select [] waiting [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, writable, _ -> flush_writable st writable);
      go ()
    end
  in
  go ()

(** A daemon must outlive stray signals: SIGPIPE (a client vanishing
    mid-write) must not kill the process, and anything that interrupts
    a blocking syscall (the EINTR paths above) must find a handler
    installed, or the default action terminates us before EINTR is
    even raised. *)
let install_signal_handlers () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ()))
  with Invalid_argument _ | Sys_error _ -> ()

(** Run the daemon until a [shutdown] request arrives.  [counters]
    reports the driver result-cache (hits, misses) for [stats];
    [ready] fires once the listeners are bound (tests and scripts use
    it to know when to connect); [exec] runs one group evaluation on a
    worker ({!Mhls_driver.Driver.background} in the real daemon) and
    returns [false] to decline, in which case the reactor evaluates
    inline — the default, which reproduces the old sequential drain.
    Returns [Error] (HLS906) without disturbing anything when the
    socket path is owned by a live daemon.  Groups still evaluating
    when a shutdown lands are abandoned: their waiters' connections
    close without a reply. *)
let serve ?(config = default_config) ?(counters = fun () -> (0, 0))
    ?(ready = fun () -> ()) ?(exec = fun (_ : unit -> unit) -> false)
    ~(dispatch : dispatch) () : (unit, Diag.t list) result =
  install_signal_handlers ();
  let unix_fds =
    match config.socket_path with
    | None -> Ok []
    | Some p -> (
        match unix_listener ~log:config.log p with
        | Ok fd ->
            config.log (Printf.sprintf "listening on %s" p);
            Ok [ fd ]
        | Error ds -> Error ds)
  in
  match unix_fds with
  | Error ds -> Error ds
  | Ok unix_fds ->
      let listeners =
        unix_fds
        @
        match config.tcp_port with
        | Some port ->
            config.log (Printf.sprintf "listening on 127.0.0.1:%d" port);
            [ tcp_listener port ]
        | None -> []
      in
      if listeners = [] then
        invalid_arg "Server.serve: no socket path and no TCP port";
      let wake_r, wake_w = Unix.pipe () in
      Unix.set_nonblock wake_w;
      let st =
        {
          cfg = config;
          dispatch;
          counters;
          exec;
          clients = Hashtbl.create 16;
          chunk = Bytes.create 65536;
          rr = [];
          by_key = P.Key_table.create 16;
          inflight = Hashtbl.create 16;
          running_kinds = Hashtbl.create 8;
          next_group = 1;
          memo = P.Key_table.create 64;
          latency = Hashtbl.create 8;
          served = 0;
          evaluated = 0;
          coalesced = 0;
          memo_hits = 0;
          busy = 0;
          cancelled = 0;
          shed = 0;
          mb_mutex = Mutex.create ();
          mb_msgs = [];
          wake_r;
          wake_w;
          running = true;
        }
      in
      ready ();
      while st.running do
        (* back-pressure: a client owed too much is not read *)
        let reading =
          Hashtbl.fold
            (fun fd c acc ->
              if c.c_unsent > P.max_frame_bytes then acc else fd :: acc)
            st.clients []
        in
        match
          Unix.select
            ((st.wake_r :: listeners) @ reading)
            (writers st) [] (-1.0)
        with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, writable, _ ->
            flush_writable st writable;
            List.iter
              (fun fd ->
                if fd = st.wake_r then drain_wake st
                else if List.mem fd listeners then accept_client st fd
                else
                  match Hashtbl.find_opt st.clients fd with
                  | Some c -> read_client st c
                  | None -> ())
              readable;
            (* Completions first — they free budget slots and populate
               the memo — then schedule whatever the intake wave
               queued.  Intake precedes scheduling, so identical
               requests written back-to-back still meet in one group
               before it starts. *)
            process_mailbox st;
            pump st
      done;
      flush_queues st;
      Hashtbl.iter
        (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
        st.clients;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        listeners;
      (try Unix.close st.wake_r with Unix.Unix_error _ -> ());
      (try Unix.close st.wake_w with Unix.Unix_error _ -> ());
      (match config.socket_path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | None -> ());
      config.log "daemon stopped";
      Ok ()
