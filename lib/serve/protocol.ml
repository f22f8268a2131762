(** The serve protocol, schema v1: typed request / response / event
    variants with a two-way JSON codec and length-prefixed wire
    framing.

    This module is the {e single} definition of every job the compiler
    can run as a service — the CLI handlers ([Mhls_cli.Handlers]) and
    the daemon dispatcher both consume these types, so the two surfaces
    cannot drift.  Errors are carried as {!Support.Diag.t} lists (the
    unified result convention), never free-form strings; protocol-level
    failures (unparseable frame, unknown kind) use rule [HLS905].

    Wire format: each frame is a 4-byte big-endian byte length followed
    by one JSON document.  Three frame shapes, discriminated by the
    ["frame"] field:

    - [{"v":1,"frame":"request","id":N,"stream":B,"kind":K,...}]
    - [{"v":1,"frame":"response","id":N,"status":"ok"|"error"|"busy",...}]
    - [{"v":1,"frame":"event","id":N,"stage":S,"pass":P,...}]

    Responses and events carry the id of the request they answer, so a
    client may pipeline several requests over one connection. *)

module Diag = Support.Diag
module Json = Support.Json

(** Schema version stamped into (and checked on) every frame. *)
let version = 1

(** Rule ID for protocol-level failures (malformed frame, unknown
    kind, missing field, admission rejection). *)
let rule_protocol = "HLS905"

(** Rule ID for a refused daemon startup: the requested socket path is
    owned by a {e live} daemon (it accepted a probe connection), so
    unlinking it would hijack that daemon's clients. *)
let rule_socket_in_use = "HLS906"

let protocol_error fmt = Diag.error ~rule:rule_protocol fmt

(** Reserved response id for errors that cannot be attributed to any
    request — a malformed frame (no parseable id) or a client-sent
    response/event frame.  Real request ids are non-negative; the
    server echoes a request's own id otherwise, so a client seeing
    [sentinel_id] knows the error is connection-level, not a reply to
    anything it sent. *)
let sentinel_id = -1

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

(* Wire defaults, for the codec tables below and the CLI's flags; a
   test ties each to its owner's parser or default. *)

let default_flow = "direct"
let default_sched = "static"
let default_strategy = "inner"
let default_ii = 1
let default_clock_ns = 10.0
let default_jobs = 1

(** Directive configuration, mirroring [Workloads.Kernels.directives]
    structurally so the protocol layer needs no kernel knowledge. *)
type directives = {
  d_ii : int option;  (** pipeline target II; [None] disables *)
  d_unroll : int option;
  d_strategy : string;  (** a [Workloads.Kernels] strategy name *)
  d_partitions : (string * string * int * int) list;
      (** (array, kind, factor, dim) *)
}

let pipelined_directives =
  { d_ii = Some default_ii; d_unroll = None; d_strategy = default_strategy;
    d_partitions = [] }

type compile_req = {
  c_kernel : string;
  c_flow : string;  (** a [Flow] flow name *)
  c_sched : string;  (** ["static"] | ["dynamic"] *)
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
  ds_sched : string;  (** ["static"] | ["dynamic"] | ["both"] *)
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

let default_fuzz =
  { f_seed = 42; f_count = 200; f_stages = [ "lower"; "adapted"; "cpp" ];
    f_shrink = true; f_jobs = default_jobs }

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

(** How one request was answered. *)
type reply =
  | Done of payload
  | Failed of Diag.t list
  | Busy of int  (** rejected by admission control; carries queue depth *)

type event = { e_id : int; e_event : Support.Tracing.event }

type frame =
  | Request of { q_id : int; q_stream : bool; q_req : request }
  | Response of { r_id : int; r_reply : reply }
  | Event of event

(* ------------------------------------------------------------------ *)
(* JSON codec: one field table per record                             *)
(* ------------------------------------------------------------------ *)

(* Every table below is both the encoder and the decoder of its record.
   Decoding is lenient where the table gives a default: an absent or
   null member takes it, so hand-written client JSON stays short and
   members added to schema v1 later stay optional. *)

let partition : (string * string * int * int) Json.codec =
  {
    enc =
      (fun (a, kind, f, dim) ->
        Json.List [ Json.Str a; Json.Str kind; Json.Int f; Json.Int dim ]);
    dec =
      (function
      | Json.List [ Json.Str a; Json.Str kind; Json.Int f; Json.Int dim ] ->
          Ok (a, kind, f, dim)
      | _ -> Error "expected [array, kind, factor, dim]");
  }

let directives =
  Json.(
    record (fun d_ii d_unroll d_strategy d_partitions ->
        { d_ii; d_unroll; d_strategy; d_partitions })
    |> opt "ii" int (fun d -> d.d_ii)
    |> opt "unroll" int (fun d -> d.d_unroll)
    |> field "strategy" string ~default:default_strategy (fun d -> d.d_strategy)
    |> field "partitions" (list partition) ~default:[] (fun d ->
           d.d_partitions)
    |> seal)

let compile_req =
  Json.(
    record
      (fun c_kernel c_flow c_sched c_directives c_clock_ns c_passes c_disable ->
        { c_kernel; c_flow; c_sched; c_directives; c_clock_ns; c_passes;
          c_disable })
    |> field "kernel" string (fun c -> c.c_kernel)
    |> field "flow" string ~default:default_flow (fun c -> c.c_flow)
    (* the default keeps pre-1.6 schema-v1 encodings valid *)
    |> field "sched" string ~default:default_sched (fun c -> c.c_sched)
    |> field "directives" directives ~default:pipelined_directives (fun c ->
           c.c_directives)
    |> field "clock_ns" float ~default:default_clock_ns (fun c -> c.c_clock_ns)
    |> opt "passes" (list string) (fun c -> c.c_passes)
    |> field "disable" (list string) ~default:[] (fun c -> c.c_disable)
    |> seal)

let lint_req =
  Json.(
    record
      (fun l_kernel l_source l_directives l_rules l_werror l_top l_passes
           l_disable ->
        { l_kernel; l_source; l_directives; l_rules; l_werror; l_top;
          l_passes; l_disable })
    |> opt "kernel" string (fun l -> l.l_kernel)
    |> opt "source" string (fun l -> l.l_source)
    |> field "directives" directives ~default:pipelined_directives (fun l ->
           l.l_directives)
    |> opt "rules" (list string) (fun l -> l.l_rules)
    |> field "werror" bool ~default:false (fun l -> l.l_werror)
    |> opt "top" string (fun l -> l.l_top)
    |> opt "passes" (list string) (fun l -> l.l_passes)
    |> field "disable" (list string) ~default:[] (fun l -> l.l_disable)
    |> seal)

let opt_req =
  Json.(
    record
      (fun op_source op_synth op_passes op_parallel op_jobs op_parsafe
           op_json ->
        { op_source; op_synth; op_passes; op_parallel; op_jobs; op_parsafe;
          op_json })
    |> opt "source" string (fun o -> o.op_source)
    |> opt "synth" int (fun o -> o.op_synth)
    |> opt "passes" (list string) (fun o -> o.op_passes)
    |> field "parallel" bool ~default:false (fun o -> o.op_parallel)
    |> field "jobs" int ~default:default_jobs (fun o -> o.op_jobs)
    |> field "parsafe" bool ~default:false (fun o -> o.op_parsafe)
    |> field "json" bool ~default:false (fun o -> o.op_json)
    |> seal)

let dse_req =
  Json.(
    record
      (fun ds_kernel ds_sched ds_max_evals ds_rounds ds_stable ds_budget_bram
           ds_budget_dsp ds_budget_lut ds_clock_ns ->
        { ds_kernel; ds_sched; ds_max_evals; ds_rounds; ds_stable;
          ds_budget_bram; ds_budget_dsp; ds_budget_lut; ds_clock_ns })
    |> field "kernel" string (fun d -> d.ds_kernel)
    |> field "sched" string ~default:default_sched (fun d -> d.ds_sched)
    |> opt "max_evals" int (fun d -> d.ds_max_evals)
    |> opt "rounds" int (fun d -> d.ds_rounds)
    |> opt "stable_rounds" int (fun d -> d.ds_stable)
    |> opt "budget_bram" int (fun d -> d.ds_budget_bram)
    |> opt "budget_dsp" int (fun d -> d.ds_budget_dsp)
    |> opt "budget_lut" int (fun d -> d.ds_budget_lut)
    |> field "clock_ns" float ~default:default_clock_ns (fun d -> d.ds_clock_ns)
    |> seal)

let fuzz_req =
  Json.(
    record (fun f_seed f_count f_stages f_shrink f_jobs ->
        { f_seed; f_count; f_stages; f_shrink; f_jobs })
    |> field "seed" int ~default:default_fuzz.f_seed (fun f -> f.f_seed)
    |> field "count" int ~default:default_fuzz.f_count (fun f -> f.f_count)
    |> field "stages" (list string) ~default:default_fuzz.f_stages (fun f ->
           f.f_stages)
    |> field "shrink" bool ~default:default_fuzz.f_shrink (fun f -> f.f_shrink)
    |> field "jobs" int ~default:default_fuzz.f_jobs (fun f -> f.f_jobs)
    |> seal)

let request_cases =
  Json.
    [
      case "compile" compile_req
        (fun c -> Compile c)
        (function Compile c -> Some c | _ -> None);
      case "lint" lint_req
        (fun l -> Lint l)
        (function Lint l -> Some l | _ -> None);
      case "opt" opt_req
        (fun o -> Opt o)
        (function Opt o -> Some o | _ -> None);
      case "dse" dse_req
        (fun d -> Dse d)
        (function Dse d -> Some d | _ -> None);
      case "fuzz" fuzz_req
        (fun f -> Fuzz f)
        (function Fuzz f -> Some f | _ -> None);
      const "list" List_kernels;
      const "stats" Stats;
      const "ping" Ping;
      const "shutdown" Shutdown;
    ]

let request_kind = Json.tag request_cases

(** The request object alone ([{"kind": ..., ...}], no frame envelope):
    what [mhlsc client --request] accepts and what {!request_key}
    canonicalizes. *)
let request = Json.tagged "kind" request_cases

let request_to_json = request.enc
let request_of_json = request.dec

let compile_resp =
  Json.(
    record
      (fun cr_kernel cr_flow cr_latency cr_ii cr_bram cr_dsp cr_lut cr_seconds
           cr_from_cache cr_adaptor cr_report ->
        { cr_kernel; cr_flow; cr_latency; cr_ii; cr_bram; cr_dsp; cr_lut;
          cr_seconds; cr_from_cache; cr_adaptor; cr_report })
    |> field "kernel" string (fun r -> r.cr_kernel)
    |> field "flow" string (fun r -> r.cr_flow)
    |> field "latency" int ~default:0 (fun r -> r.cr_latency)
    |> field "ii" int ~default:0 (fun r -> r.cr_ii)
    |> field "bram" int ~default:0 (fun r -> r.cr_bram)
    |> field "dsp" int ~default:0 (fun r -> r.cr_dsp)
    |> field "lut" int ~default:0 (fun r -> r.cr_lut)
    |> field "seconds" float ~default:0.0 (fun r -> r.cr_seconds)
    |> field "from_cache" bool ~default:false (fun r -> r.cr_from_cache)
    |> opt "adaptor" string (fun r -> r.cr_adaptor)
    |> field "report" string (fun r -> r.cr_report)
    |> seal)

let lint_resp =
  Json.(
    record (fun lr_diags -> { lr_diags })
    |> field "diagnostics" (list Diag.codec) (fun r -> r.lr_diags)
    |> seal)

let opt_resp =
  Json.(
    record
      (fun or_ir or_passes or_seconds or_par_status or_verdict or_safe ->
        { or_ir; or_passes; or_seconds; or_par_status; or_verdict; or_safe })
    |> field "ir" string (fun r -> r.or_ir)
    |> field "passes" int ~default:0 (fun r -> r.or_passes)
    |> field "seconds" float ~default:0.0 (fun r -> r.or_seconds)
    |> opt "par_status" string (fun r -> r.or_par_status)
    |> opt "verdict" string (fun r -> r.or_verdict)
    |> field "safe" bool ~default:true (fun r -> r.or_safe)
    |> seal)

let best =
  Json.(
    record (fun label latency -> (label, latency))
    |> field "label" string fst
    |> field "latency" int ~default:0 snd
    |> seal)

let dse_resp =
  Json.(
    record (fun dr_report dr_best dr_json -> { dr_report; dr_best; dr_json })
    |> field "report" string (fun r -> r.dr_report)
    |> opt "best" best (fun r -> r.dr_best)
    |> field "dse_json" string (fun r -> r.dr_json)
    |> seal)

let fuzz_resp =
  Json.(
    record (fun fr_report fr_failures -> { fr_report; fr_failures })
    |> field "report" string (fun r -> r.fr_report)
    |> field "failures" int ~default:0 (fun r -> r.fr_failures)
    |> seal)

let kernel_info =
  Json.(
    record (fun k_name k_description -> { k_name; k_description })
    |> field "name" string (fun k -> k.k_name)
    |> field "description" string (fun k -> k.k_description)
    |> seal)

let kernels =
  Json.(record Fun.id |> field "kernels" (list kernel_info) Fun.id |> seal)

let running =
  Json.(
    record (fun kind n -> (kind, n))
    |> field "kind" string fst
    |> field "n" int ~default:0 snd
    |> seal)

let latency_stat =
  Json.(
    record (fun ls_kind ls_count ls_p50_ms ls_p99_ms ->
        { ls_kind; ls_count; ls_p50_ms; ls_p99_ms })
    |> field "kind" string (fun l -> l.ls_kind)
    |> field "count" int ~default:0 (fun l -> l.ls_count)
    |> field "p50_ms" float ~default:0.0 (fun l -> l.ls_p50_ms)
    |> field "p99_ms" float ~default:0.0 (fun l -> l.ls_p99_ms)
    |> seal)

let stats_resp =
  Json.(
    record
      (fun st_served st_evaluated st_coalesced st_memo_hits st_busy
           st_cache_hits st_cache_misses st_queue_depth st_queue_max
           st_inflight st_running st_cancelled st_shed st_latency ->
        { st_served; st_evaluated; st_coalesced; st_memo_hits; st_busy;
          st_cache_hits; st_cache_misses; st_queue_depth; st_queue_max;
          st_inflight; st_running; st_cancelled; st_shed; st_latency })
    |> field "served" int ~default:0 (fun s -> s.st_served)
    |> field "evaluated" int ~default:0 (fun s -> s.st_evaluated)
    |> field "coalesced" int ~default:0 (fun s -> s.st_coalesced)
    |> field "memo_hits" int ~default:0 (fun s -> s.st_memo_hits)
    |> field "busy" int ~default:0 (fun s -> s.st_busy)
    |> field "cache_hits" int ~default:0 (fun s -> s.st_cache_hits)
    |> field "cache_misses" int ~default:0 (fun s -> s.st_cache_misses)
    |> field "queue_depth" int ~default:0 (fun s -> s.st_queue_depth)
    |> field "queue_max" int ~default:0 (fun s -> s.st_queue_max)
    |> field "inflight" int ~default:0 (fun s -> s.st_inflight)
    |> field "running" (list running) ~default:[] (fun s -> s.st_running)
    |> field "cancelled" int ~default:0 (fun s -> s.st_cancelled)
    |> field "shed" int ~default:0 (fun s -> s.st_shed)
    |> field "latency" (list latency_stat) ~default:[] (fun s ->
           s.st_latency)
    |> seal)

let payload_cases =
  Json.
    [
      case "compile" compile_resp
        (fun r -> R_compile r)
        (function R_compile r -> Some r | _ -> None);
      case "lint" lint_resp
        (fun r -> R_lint r)
        (function R_lint r -> Some r | _ -> None);
      case "opt" opt_resp
        (fun r -> R_opt r)
        (function R_opt r -> Some r | _ -> None);
      case "dse" dse_resp
        (fun r -> R_dse r)
        (function R_dse r -> Some r | _ -> None);
      case "fuzz" fuzz_resp
        (fun r -> R_fuzz r)
        (function R_fuzz r -> Some r | _ -> None);
      case "list" kernels
        (fun ks -> R_list ks)
        (function R_list ks -> Some ks | _ -> None);
      case "stats" stats_resp
        (fun s -> R_stats s)
        (function R_stats s -> Some s | _ -> None);
      const "ping" R_pong;
      const "shutdown" R_shutdown;
    ]

let payload_kind = Json.tag payload_cases

let reply =
  Json.(
    tagged "status"
      [
        case "ok"
          (tagged ~body:"payload" "kind" payload_cases)
          (fun p -> Done p)
          (function Done p -> Some p | _ -> None);
        case "error"
          (record Fun.id
          |> field "diagnostics" (list Diag.codec) Fun.id
          |> seal)
          (fun ds -> Failed ds)
          (function Failed ds -> Some ds | _ -> None);
        case "busy"
          (record Fun.id |> field "queue_depth" int ~default:0 Fun.id |> seal)
          (fun depth -> Busy depth)
          (function Busy depth -> Some depth | _ -> None);
      ])

(* the allocation figures are not on the wire *)
let event =
  let module Ev = Support.Tracing in
  Json.(
    record (fun e_id stage pass seconds before after ->
        { e_id; e_event = Ev.event ~stage ~pass ~seconds ~before ~after })
    |> field "id" int ~default:0 (fun e -> e.e_id)
    |> field "stage" string (fun e -> e.e_event.Ev.ev_stage)
    |> field "pass" string (fun e -> e.e_event.Ev.ev_pass)
    |> field "seconds" float ~default:0.0 (fun e -> e.e_event.Ev.ev_seconds)
    |> field "before" int ~default:0 (fun e -> e.e_event.Ev.ev_instrs_before)
    |> field "after" int ~default:0 (fun e -> e.e_event.Ev.ev_instrs_after)
    |> seal)

let frame =
  Json.(
    record (fun () f -> f)
    |> field "v" (schema version) (fun _ -> ())
    |> inline
         (tagged "frame"
            [
              case "request"
                (record (fun id stream req -> (id, stream, req))
                |> field "id" int ~default:0 (fun (id, _, _) -> id)
                |> field "stream" bool ~default:false (fun (_, s, _) -> s)
                |> inline request (fun (_, _, req) -> req)
                |> seal)
                (fun (q_id, q_stream, q_req) ->
                  Request { q_id; q_stream; q_req })
                (function
                  | Request { q_id; q_stream; q_req } ->
                      Some (q_id, q_stream, q_req)
                  | _ -> None);
              case "response"
                (record (fun id reply -> (id, reply))
                |> field "id" int ~default:0 fst
                |> inline reply snd
                |> seal)
                (fun (r_id, r_reply) -> Response { r_id; r_reply })
                (function
                  | Response { r_id; r_reply } -> Some (r_id, r_reply)
                  | _ -> None);
              case "event" event
                (fun e -> Event e)
                (function Event e -> Some e | _ -> None);
            ])
         Fun.id
    |> seal)

let frame_to_json = frame.enc
let frame_of_json = frame.dec

let frame_to_string (f : frame) : string = Json.to_string (frame_to_json f)

let frame_of_string (s : string) : (frame, string) result =
  Result.bind (Json.parse s) frame_of_json

(* ------------------------------------------------------------------ *)
(* Coalescing identity                                                *)
(* ------------------------------------------------------------------ *)

(** The request's content address for coalescing and response
    memoization, in two parts: the canonical JSON of the request object
    with its [source] left out (ids and stream flags are not in it
    either), and the [source] string as decoded, so a bulk module is
    never printed again to make its key.  The hash is taken once, over
    every byte of both parts; two keys are equal only when both parts
    are equal byte for byte.  No digest stands in for the content, so
    a hash collision can never return another request's reply. *)
type key = { k_request : string; k_source : string option; k_hash : int }

(** [None] for requests that must never be coalesced or memoized
    (stats, ping, shutdown — and [list], which is cheaper than a table
    lookup). *)
let request_key (r : request) : key option =
  let key ?source r =
    let k_request = Json.to_string (request_to_json r) in
    let k_hash = Hashtbl.hash (k_request, source) in
    Some { k_request; k_source = source; k_hash }
  in
  match r with
  | Lint l -> key ?source:l.l_source (Lint { l with l_source = None })
  | Opt o -> key ?source:o.op_source (Opt { o with op_source = None })
  | Compile _ | Dse _ | Fuzz _ -> key r
  | List_kernels | Stats | Ping | Shutdown -> None

module Key_table = Hashtbl.Make (struct
  type t = key

  let hash k = k.k_hash

  let equal a b =
    a.k_hash = b.k_hash
    && String.equal a.k_request b.k_request
    && Option.equal String.equal a.k_source b.k_source
end)

(* ------------------------------------------------------------------ *)
(* Wire framing                                                       *)
(* ------------------------------------------------------------------ *)

(** Upper bound on a single frame body (64 MiB): a corrupt length
    prefix must not make the server allocate unbounded memory. *)
let max_frame_bytes = 64 * 1024 * 1024

(** What a response frame holds after its id, as {!frame_to_string}
    prints it: the reply's members and the closing brace.  The server
    encodes a reply once and sends these bytes, shared, to every
    request it answers. *)
type encoded_reply = string

let encode_reply (r : reply) : encoded_reply =
  let b = Buffer.create 256 in
  Json.members_to_buffer b (Json.fields reply r);
  Buffer.contents b

(* A response frame's JSON up to its id, as the frame codec prints it. *)
let response_open =
  Printf.sprintf {|{"v": %d, "frame": "response", "id": |} version

(** What comes before [r] in the frame answering request [id]: the
    length prefix, the fixed head and the id. *)
let response_head ~(id : int) (r : encoded_reply) : string =
  let id = string_of_int id in
  let h = String.length response_open and n = String.length id in
  let s = Bytes.create (4 + h + n) in
  Bytes.set_int32_be s 0 (Int32.of_int (h + n + String.length r));
  Bytes.blit_string response_open 0 s 4 h;
  Bytes.blit_string id 0 s (4 + h) n;
  Bytes.unsafe_to_string s

(* One string.  A request or an event is printed after 4 reserved
   bytes of its own buffer, which then take its length. *)
let encode_frame (f : frame) : string =
  match f with
  | Response { r_id; r_reply } ->
      let r = encode_reply r_reply in
      response_head ~id:r_id r ^ r
  | Request _ | Event _ ->
      let b = Buffer.create 4096 in
      Buffer.add_string b "\000\000\000\000";
      Json.to_buffer b (frame_to_json f);
      let s = Buffer.to_bytes b in
      Bytes.set_int32_be s 0 (Int32.of_int (Bytes.length s - 4));
      Bytes.unsafe_to_string s

(* The body length announced by the 4-byte big-endian prefix at [at]. *)
let body_length (b : Bytes.t) (at : int) : (int, string) result =
  let n = Int32.to_int (Bytes.get_int32_be b at) land 0xffff_ffff in
  if n > max_frame_bytes then Error (Printf.sprintf "bad frame length %d" n)
  else Ok n

(** Incremental frame assembly for the non-blocking reactor: the
    4-byte length prefix, then exactly the announced body, decoded once
    complete.  The body buffer grows as bytes arrive, doubling but
    never past the announced length: so memory grows with what has
    arrived, not with what the prefix announces, and a complete body
    fills its buffer exactly and is decoded without another copy.
    Receiving a frame costs time linear in its size however it is
    split into reads. *)
type assembler = {
  mutable a_buf : Bytes.t;  (** the prefix until it is in, then the body *)
  mutable a_have : int;  (** bytes of [a_buf] filled *)
  mutable a_len : int;  (** announced body length; -1 until the prefix is in *)
}

let assembler () = { a_buf = Bytes.create 4; a_have = 0; a_len = -1 }

(* Feed [len] bytes of [buf] from [off]; returns the completed frames
   and where it stopped.  With [hold], bytes of an incomplete prefix or
   body are copied into [a] (the reactor reuses its read buffer);
   without, [a] stops in front of them and leaves them to the caller. *)
let assemble ~hold (a : assembler) (buf : Bytes.t) (off : int) (len : int) :
    ((frame, string) result list * int, string) result =
  let stop = off + len in
  let rec go pos acc =
    if a.a_len < 0 && a.a_have = 4 then
      match body_length a.a_buf 0 with
      | Error e -> Error e
      | Ok n ->
          a.a_len <- n;
          a.a_buf <- Bytes.empty;
          a.a_have <- 0;
          go pos acc
    else if a.a_have = a.a_len then begin
      (* the body fills [a_buf], which is never written again *)
      let body = Bytes.unsafe_to_string a.a_buf in
      a.a_buf <- Bytes.create 4;
      a.a_have <- 0;
      a.a_len <- -1;
      go pos (frame_of_string body :: acc)
    end
    else
      let want = if a.a_len < 0 then 4 else a.a_len in
      let k = min (want - a.a_have) (stop - pos) in
      if pos >= stop || ((not hold) && a.a_have + k < want) then
        Ok (List.rev acc, pos)
      else begin
        if a.a_have + k > Bytes.length a.a_buf then begin
          let cap = max (a.a_have + k) (2 * Bytes.length a.a_buf) in
          let grown = Bytes.create (min want cap) in
          Bytes.blit a.a_buf 0 grown 0 a.a_have;
          a.a_buf <- grown
        end;
        Bytes.blit buf pos a.a_buf a.a_have k;
        a.a_have <- a.a_have + k;
        go (pos + k) acc
      end
  in
  go off []

let feed (a : assembler) (buf : Bytes.t) (off : int) (len : int) :
    ((frame, string) result list, string) result =
  Result.map fst (assemble ~hold:true a buf off len)

(** Split as many complete frames as possible off the head of [buf];
    returns the decoded frames (or per-frame decode errors) and the
    unconsumed tail.  [Error] on an oversized length prefix (the
    connection should be dropped).  A fresh {!assembler} fed the whole
    string, holding nothing back: the tail is the rest of [buf], and
    [buf] itself when no frame was complete. *)
let decode_frames (buf : string) :
    ((frame, string) result list * string, string) result =
  let a = assembler () in
  Result.map
    (fun (frames, stop) ->
      (* only an incomplete frame's prefix reached [a] *)
      let from = if a.a_len < 0 then stop else stop - 4 in
      let tail =
        if from = 0 then buf else String.sub buf from (String.length buf - from)
      in
      (frames, tail))
    (assemble ~hold:false a (Bytes.unsafe_of_string buf) 0 (String.length buf))

(* Blocking single-frame IO over a file descriptor (client side and
   tests; the server uses the incremental {!assembler}). *)

let write_string (fd : Unix.file_descr) (s : string) : unit =
  let rec go at =
    if at < String.length s then
      match Unix.write_substring fd s at (String.length s - at) with
      | n -> go (at + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go at
  in
  go 0

let write_frame (fd : Unix.file_descr) (f : frame) : unit =
  write_string fd (encode_frame f)

let write_frames (fd : Unix.file_descr) (fs : frame list) : unit =
  write_string fd (String.concat "" (List.map encode_frame fs))

let read_exactly (fd : Unix.file_descr) (n : int) : (Bytes.t, string) result =
  let b = Bytes.create n in
  let rec go at =
    if at >= n then Ok b
    else
      match Unix.read fd b at (n - at) with
      | 0 -> Error "connection closed"
      | k -> go (at + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go at
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

let ( let* ) = Result.bind

let read_frame (fd : Unix.file_descr) : (frame, string) result =
  let* hdr = read_exactly fd 4 in
  let* len = body_length hdr 0 in
  let* body = read_exactly fd len in
  (* [body] is this function's own and is never written again *)
  frame_of_string (Bytes.unsafe_to_string body)
