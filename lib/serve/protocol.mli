(** The serve protocol, schema v1: the single typed definition of every
    job the compiler can run as a service, shared by the CLI handlers
    and the daemon.  Errors travel as {!Support.Diag.t} lists, never
    free-form strings.  See the DESIGN.md serve chapter for the wire
    format.

    Two parts serve the daemon's memo, so that answering a repeated
    request costs its reactor a hash and a head of a few dozen bytes.
    {!request_key} keys a request by its decoded source string and the
    small rest of it, printed, without printing the source again.
    {!encode_reply} encodes a reply once into the bytes after a
    response's id, and {!response_head} is what goes in front of them
    for any id, so a reply is sent without copying it; {!encode_frame}
    writes every response that way, so there is one encoder. *)

module Diag := Support.Diag
module Json := Support.Json

(** Schema version stamped into (and checked on) every frame. *)
val version : int

(** Rule ID for protocol-level failures (malformed frame, unknown
    kind, missing field, admission rejection). *)
val rule_protocol : string

(** Rule ID for a refused daemon startup: the requested socket path is
    owned by a live daemon. *)
val rule_socket_in_use : string

(** [Diag.error ~rule:rule_protocol]. *)
val protocol_error :
  ('a, Format.formatter, unit, Diag.t) format4 -> 'a

(** Reserved response id (−1) for errors not attributable to any
    request (malformed frame, client-sent response/event frame).
    Request ids are non-negative; a response carrying [sentinel_id]
    is connection-level, never a reply to a pipelined request. *)
val sentinel_id : int

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

(** Wire defaults: what an absent member decodes to, and the CLI's
    flag defaults.  Names are spelled as [Flow], [Hls_backend.Backend]
    and [Workloads.Kernels] parse them; the clock is
    [Hls_backend.Op_model.default_clock_ns]. *)

val default_flow : string
val default_sched : string
val default_strategy : string
val default_ii : int
val default_clock_ns : float
val default_jobs : int

type directives = {
  d_ii : int option;  (** pipeline target II; [None] disables *)
  d_unroll : int option;
  d_strategy : string;  (** a [Workloads.Kernels] strategy name *)
  d_partitions : (string * string * int * int) list;
      (** (array, kind, factor, dim) *)
}

(** The directives of a request without a ["directives"] member: II
    {!default_ii}, {!default_strategy}.  A ["directives"] object
    without ["ii"] decodes to [d_ii = None], unpipelined. *)
val pipelined_directives : directives

type compile_req = {
  c_kernel : string;
  c_flow : string;  (** a [Flow] flow name *)
  c_sched : string;
      (** a discipline name; the decoder's default keeps pre-1.6
          schema-v1 encodings valid *)
  c_directives : directives;
  c_clock_ns : float;
  c_passes : string list option;  (** exact adaptor pipeline, if given *)
  c_disable : string list;
}

type lint_req = {
  l_kernel : string option;  (** built-in kernel… *)
  l_source : string option;  (** …or raw IR text (exactly one) *)
  l_directives : directives;
  l_rules : string list option;
  l_werror : bool;
  l_top : string option;
  l_passes : string list option;
  l_disable : string list;
}

type opt_req = {
  op_source : string option;  (** raw IR text… *)
  op_synth : int option;  (** …or a generated N-function module *)
  op_passes : string list option;
  op_parallel : bool;
  op_jobs : int;
  op_parsafe : bool;  (** only run the parallel-safety checker *)
  op_json : bool;  (** with [op_parsafe]: JSON verdict *)
}

type dse_req = {
  ds_kernel : string;
  ds_sched : string;  (** a discipline name, or ["both"] *)
  ds_max_evals : int option;
  ds_rounds : int option;
  ds_stable : int option;
  ds_budget_bram : int option;
  ds_budget_dsp : int option;
  ds_budget_lut : int option;
  ds_clock_ns : float;
}

type fuzz_req = {
  f_seed : int;
  f_count : int;
  f_stages : string list;
  f_shrink : bool;
  f_jobs : int;
}

val default_fuzz : fuzz_req

type request =
  | Compile of compile_req
  | Lint of lint_req
  | Opt of opt_req
  | Dse of dse_req
  | Fuzz of fuzz_req
  | List_kernels
  | Stats
  | Ping
  | Shutdown

val request_kind : request -> string

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

type compile_resp = {
  cr_kernel : string;
  cr_flow : string;  (** the canonical [Flow.flow_name] *)
  cr_latency : int;
  cr_ii : int;
  cr_bram : int;
  cr_dsp : int;
  cr_lut : int;
  cr_seconds : float;  (** front-end compile seconds (original run) *)
  cr_from_cache : bool;  (** served by the driver's result cache *)
  cr_adaptor : string option;  (** rendered adaptor report *)
  cr_report : string;  (** rendered synthesis report (deterministic) *)
}

type lint_resp = { lr_diags : Diag.t list }

type opt_resp = {
  or_ir : string;  (** optimized module text (empty under [op_parsafe]) *)
  or_passes : int;
  or_seconds : float;
  or_par_status : string option;
  or_verdict : string option;  (** rendered Parsafe verdict *)
  or_safe : bool;
}

type dse_resp = {
  dr_report : string;  (** rendered frontier + search statistics *)
  dr_best : (string * int) option;  (** label, latency *)
  dr_json : string;  (** versioned dse.json export *)
}

type fuzz_resp = { fr_report : string; fr_failures : int }
type kernel_info = { k_name : string; k_description : string }

type latency_stat = {
  ls_kind : string;
  ls_count : int;
  ls_p50_ms : float;
  ls_p99_ms : float;
}

type stats_resp = {
  st_served : int;  (** responses sent (excluding busy rejections) *)
  st_evaluated : int;  (** dispatcher evaluations actually run *)
  st_coalesced : int;  (** requests that shared an in-flight evaluation *)
  st_memo_hits : int;  (** requests served from the response memo *)
  st_busy : int;  (** admission rejections *)
  st_cache_hits : int;  (** driver result-cache hits (session-wide) *)
  st_cache_misses : int;
  st_queue_depth : int;  (** pending requests at the time of answering *)
  st_queue_max : int;  (** admission-control bound *)
  st_inflight : int;  (** groups currently evaluating on the pool *)
  st_running : (string * int) list;
      (** in-flight groups per kind, sorted by kind (only kinds > 0) *)
  st_cancelled : int;
      (** queued groups dropped because every waiter disconnected *)
  st_shed : int;  (** memo/ring shed events under [--max-rss-mb] *)
  st_latency : latency_stat list;  (** per job kind, sorted by kind *)
}

type payload =
  | R_compile of compile_resp
  | R_lint of lint_resp
  | R_opt of opt_resp
  | R_dse of dse_resp
  | R_fuzz of fuzz_resp
  | R_list of kernel_info list
  | R_stats of stats_resp
  | R_pong
  | R_shutdown

val payload_kind : payload -> string

(** How one request was answered. *)
type reply =
  | Done of payload
  | Failed of Diag.t list
  | Busy of int  (** rejected by admission control; carries queue depth *)

(** One pass event of the request [e_id].  The wire carries its
    stage, pass, seconds and IR sizes; the allocation figures stay in
    the daemon and decode as [0.]. *)
type event = { e_id : int; e_event : Support.Tracing.event }

type frame =
  | Request of { q_id : int; q_stream : bool; q_req : request }
  | Response of { r_id : int; r_reply : reply }
  | Event of event

(* ------------------------------------------------------------------ *)
(* JSON codec                                                         *)
(* ------------------------------------------------------------------ *)

(** The request object alone ([{"kind": ..., ...}], no frame
    envelope) — what [mhlsc client --request] accepts and what
    {!request_key} canonicalizes. *)
val request_to_json : request -> Json.t

(** Decode a bare request object.  Missing optional fields take their
    defaults, so hand-written client JSON stays short. *)
val request_of_json : Json.t -> (request, string) result

val frame_to_json : frame -> Json.t
val frame_of_json : Json.t -> (frame, string) result
val frame_to_string : frame -> string
val frame_of_string : string -> (frame, string) result

(* ------------------------------------------------------------------ *)
(* Coalescing identity                                                *)
(* ------------------------------------------------------------------ *)

(** The request's content address for coalescing and response
    memoization, in two parts: the canonical JSON of the request object
    with its [source] left out (ids and stream flags excluded), and the
    decoded [source] string itself, so a bulk module is never printed
    again for its key.  Hashed once over both parts in full; equal only
    when both parts are equal byte for byte, never by a digest. *)
type key

(** [None] for requests that must never be coalesced or memoized. *)
val request_key : request -> key option

(** Tables keyed by {!key}: each key's hash is reused, and a lookup
    compares both parts in full. *)
module Key_table : Hashtbl.S with type key = key

(* ------------------------------------------------------------------ *)
(* Wire framing: 4-byte big-endian length prefix + one JSON document  *)
(* ------------------------------------------------------------------ *)

(** Upper bound on a single frame body (64 MiB). *)
val max_frame_bytes : int

(** What a response frame holds after its id: the reply's members as
    {!frame_to_string} prints them, and the closing brace.  The server
    encodes a reply once, on the worker that produced it, and sends
    these bytes, shared and never copied, from the memo and to every
    coalesced request. *)
type encoded_reply = private string

val encode_reply : reply -> encoded_reply

(** [response_head ~id r] is what comes before [r] in the frame
    answering request [id]: the 4-byte length prefix, a fixed head and
    the id, a few dozen bytes.  [encode_frame (Response {r_id; r_reply})]
    is [response_head ~id:r_id r ^ r] with [r = encode_reply r_reply]. *)
val response_head : id:int -> encoded_reply -> string

(** The 4-byte length prefix, then {!frame_to_string}. *)
val encode_frame : frame -> string

(** Split as many complete frames as possible off the head of the
    buffer; returns the decoded frames (or per-frame decode errors)
    and the unconsumed tail.  [Error] on an oversized length prefix
    (the connection should be dropped).  Runs the {!assembler} the
    server reads with, over the whole buffer at once; the tail is the
    buffer itself when no frame is complete. *)
val decode_frames :
  string -> ((frame, string) result list * string, string) result

(** Incremental frame assembly for a non-blocking reader: the length
    prefix first, then exactly the announced body, decoded once
    complete, so a frame costs time linear in its size however it is
    split into reads.  Memory grows with the bytes that have arrived,
    never with the announced length alone. *)
type assembler

val assembler : unit -> assembler

(** [feed a buf off len] appends [len] bytes of [buf] from [off] and
    returns the frames this completed (or per-frame decode errors), in
    order.  [Error] on an oversized length prefix (the connection
    should be dropped). *)
val feed :
  assembler ->
  Bytes.t ->
  int ->
  int ->
  ((frame, string) result list, string) result

(** Blocking single-frame IO (client side and tests; the server uses
    the incremental {!assembler}). *)
val write_frame : Unix.file_descr -> frame -> unit

(** The frames, in order, in one write. *)
val write_frames : Unix.file_descr -> frame list -> unit

val read_frame : Unix.file_descr -> (frame, string) result
