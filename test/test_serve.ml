(** Serve-protocol and daemon tests: golden JSON per request variant,
    codec round-trips, incremental framing, and a live daemon exercise
    covering concurrent clients, coalescing, memoization and clean
    shutdown. *)

module P = Mhls_serve.Protocol
module Server = Mhls_serve.Server
module Client = Mhls_serve.Client
module H = Mhls_cli.Handlers
module R = Mhls_cli.Render

let check = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sample requests, one per variant                                   *)
(* ------------------------------------------------------------------ *)

let full_directives =
  {
    P.d_ii = Some 2;
    d_unroll = Some 4;
    d_strategy = "middle";
    d_partitions = [ ("a", "cyclic", 2, 1) ];
  }

let compile_full =
  P.Compile
    {
      c_kernel = "gemm";
      c_flow = "direct";
      c_sched = "dynamic";
      c_directives = full_directives;
      c_clock_ns = 10.0;
      c_passes = Some [ "typed-pointers" ];
      c_disable = [ "translate-metadata" ];
    }

let compile_min =
  P.Compile
    {
      c_kernel = "fir";
      c_flow = "cpp";
      c_sched = "static";
      c_directives = P.pipelined_directives;
      c_clock_ns = 10.0;
      c_passes = None;
      c_disable = [];
    }

let lint_req =
  P.Lint
    {
      l_kernel = Some "gemm";
      l_source = None;
      l_directives = P.pipelined_directives;
      l_rules = Some [ "HLS201" ];
      l_werror = true;
      l_top = Some "gemm";
      l_passes = None;
      l_disable = [];
    }

let opt_req =
  P.Opt
    {
      op_source = None;
      op_synth = Some 4;
      op_passes = Some [ "dce" ];
      op_parallel = true;
      op_jobs = 2;
      op_parsafe = false;
      op_json = false;
    }

let dse_req =
  P.Dse
    {
      ds_kernel = "gemm";
      ds_sched = "both";
      ds_max_evals = Some 8;
      ds_rounds = None;
      ds_stable = None;
      ds_budget_bram = Some 32;
      ds_budget_dsp = None;
      ds_budget_lut = None;
      ds_clock_ns = 10.0;
    }

let fuzz_req =
  P.Fuzz
    { f_seed = 7; f_count = 5; f_stages = [ "lower" ]; f_shrink = false;
      f_jobs = 1 }

let all_requests =
  [
    compile_full; compile_min; lint_req; opt_req; dse_req; fuzz_req;
    P.List_kernels; P.Stats; P.Ping; P.Shutdown;
  ]

(* ------------------------------------------------------------------ *)
(* Golden JSON                                                        *)
(* ------------------------------------------------------------------ *)

(* The wire encoding is part of the public contract (schema v1): these
   strings must never change without bumping [P.version]. *)
let goldens =
  [
    ( compile_full,
      {|{"kind": "compile", "kernel": "gemm", "flow": "direct", "sched": "dynamic", "directives": {"ii": 2, "unroll": 4, "strategy": "middle", "partitions": [["a", "cyclic", 2, 1]]}, "clock_ns": 10.0, "passes": ["typed-pointers"], "disable": ["translate-metadata"]}|}
    );
    ( compile_min,
      {|{"kind": "compile", "kernel": "fir", "flow": "cpp", "sched": "static", "directives": {"ii": 1, "unroll": null, "strategy": "inner", "partitions": []}, "clock_ns": 10.0, "passes": null, "disable": []}|}
    );
    ( lint_req,
      {|{"kind": "lint", "kernel": "gemm", "source": null, "directives": {"ii": 1, "unroll": null, "strategy": "inner", "partitions": []}, "rules": ["HLS201"], "werror": true, "top": "gemm", "passes": null, "disable": []}|}
    );
    ( opt_req,
      {|{"kind": "opt", "source": null, "synth": 4, "passes": ["dce"], "parallel": true, "jobs": 2, "parsafe": false, "json": false}|}
    );
    ( dse_req,
      {|{"kind": "dse", "kernel": "gemm", "sched": "both", "max_evals": 8, "rounds": null, "stable_rounds": null, "budget_bram": 32, "budget_dsp": null, "budget_lut": null, "clock_ns": 10.0}|}
    );
    ( fuzz_req,
      {|{"kind": "fuzz", "seed": 7, "count": 5, "stages": ["lower"], "shrink": false, "jobs": 1}|}
    );
    (P.List_kernels, {|{"kind": "list"}|});
    (P.Stats, {|{"kind": "stats"}|});
    (P.Ping, {|{"kind": "ping"}|});
    (P.Shutdown, {|{"kind": "shutdown"}|});
  ]

let test_golden_requests () =
  List.iter
    (fun (req, want) ->
      check
        (Printf.sprintf "golden %s" (P.request_kind req))
        want
        (Support.Json.to_string (P.request_to_json req)))
    goldens

let test_golden_frames () =
  let cases =
    [
      ( P.Request { q_id = 3; q_stream = true; q_req = P.Ping },
        {|{"v": 1, "frame": "request", "id": 3, "stream": true, "kind": "ping"}|}
      );
      ( P.Response { r_id = 9; r_reply = P.Busy 64 },
        {|{"v": 1, "frame": "response", "id": 9, "status": "busy", "queue_depth": 64}|}
      );
      ( P.Event
          { e_id = 5;
            e_event =
              Support.Tracing.event ~stage:"adaptor" ~pass:"typed-pointers"
                ~seconds:0.25 ~before:10 ~after:8 },
        {|{"v": 1, "frame": "event", "id": 5, "stage": "adaptor", "pass": "typed-pointers", "seconds": 0.25, "before": 10, "after": 8}|}
      );
      ( P.Response
          {
            r_id = 2;
            r_reply =
              P.Failed
                [
                  Support.Diag.error ~rule:"HLS905" ~func:"f" ~hint:"h"
                    "boom %d" 1;
                ];
          },
        {|{"v": 1, "frame": "response", "id": 2, "status": "error", "diagnostics": [{"rule": "HLS905", "severity": "error", "function": "f", "location": null, "message": "boom 1", "hint": "h"}]}|}
      );
      ( P.Response { r_id = 1; r_reply = P.Done P.R_pong },
        {|{"v": 1, "frame": "response", "id": 1, "status": "ok", "kind": "ping", "payload": {}}|}
      );
    ]
  in
  List.iter
    (fun (frame, want) -> check "golden frame" want (P.frame_to_string frame))
    cases

(* One ok response per payload kind: the bytes are pinned, and decoding
   them gives back the very frame that was encoded. *)
let payload_goldens =
  let ok id p = P.Response { r_id = id; r_reply = P.Done p } in
  [
    ( ok 11
        (P.R_compile
           {
             cr_kernel = "gemm";
             cr_flow = "direct-ir";
             cr_latency = 310;
             cr_ii = 1;
             cr_bram = 8;
             cr_dsp = 20;
             cr_lut = 2210;
             cr_seconds = 0.5;
             cr_from_cache = true;
             cr_adaptor = Some "adaptor: 3 passes\n";
             cr_report = "II\t1\n\"gemm\" \\ done\n";
           }),
      {|{"v": 1, "frame": "response", "id": 11, "status": "ok", "kind": "compile", "payload": {"kernel": "gemm", "flow": "direct-ir", "latency": 310, "ii": 1, "bram": 8, "dsp": 20, "lut": 2210, "seconds": 0.5, "from_cache": true, "adaptor": "adaptor: 3 passes\n", "report": "II\t1\n\"gemm\" \\ done\n"}}|}
    );
    ( ok 12
        (P.R_lint
           {
             lr_diags =
               [
                 Support.Diag.warning ~rule:"HLS001" ~func:"gemm"
                   ~location:"loop3.header" ~hint:"request II >= 4"
                   "recurrence needs II >= %d" 4;
                 Support.Diag.note ~rule:"HLS201" "no pragmas";
               ];
           }),
      {|{"v": 1, "frame": "response", "id": 12, "status": "ok", "kind": "lint", "payload": {"diagnostics": [{"rule": "HLS001", "severity": "warning", "function": "gemm", "location": "loop3.header", "message": "recurrence needs II >= 4", "hint": "request II >= 4"}, {"rule": "HLS201", "severity": "note", "function": null, "location": null, "message": "no pragmas", "hint": null}]}}|}
    );
    ( ok 13
        (P.R_opt
           {
             or_ir = "define void @f() {\n  ret void\n}\n";
             or_passes = 7;
             or_seconds = 0.125;
             or_par_status = Some "parallel (4 functions)";
             or_verdict = None;
             or_safe = true;
           }),
      {|{"v": 1, "frame": "response", "id": 13, "status": "ok", "kind": "opt", "payload": {"ir": "define void @f() {\n  ret void\n}\n", "passes": 7, "seconds": 0.125, "par_status": "parallel (4 functions)", "verdict": null, "safe": true}}|}
    );
    ( ok 14
        (P.R_dse
           {
             dr_report = "frontier: 3 points\n";
             dr_best = Some ("middle-ii1-u1-A4-B4", 101);
             dr_json = "{\"version\": 1}\n";
           }),
      {|{"v": 1, "frame": "response", "id": 14, "status": "ok", "kind": "dse", "payload": {"report": "frontier: 3 points\n", "best": {"label": "middle-ii1-u1-A4-B4", "latency": 101}, "dse_json": "{\"version\": 1}\n"}}|}
    );
    ( ok 15 (P.R_fuzz { fr_report = "5 specs, 0 mismatches\n"; fr_failures = 0 }),
      {|{"v": 1, "frame": "response", "id": 15, "status": "ok", "kind": "fuzz", "payload": {"report": "5 specs, 0 mismatches\n", "failures": 0}}|}
    );
    ( ok 16
        (P.R_list
           [
             { k_name = "gemm"; k_description = "C = alpha*A*B + beta*C" };
             { k_name = "fir"; k_description = "16-tap FIR filter" };
           ]),
      {|{"v": 1, "frame": "response", "id": 16, "status": "ok", "kind": "list", "payload": {"kernels": [{"name": "gemm", "description": "C = alpha*A*B + beta*C"}, {"name": "fir", "description": "16-tap FIR filter"}]}}|}
    );
    ( ok 17
        (P.R_stats
           {
             st_served = 40;
             st_evaluated = 12;
             st_coalesced = 3;
             st_memo_hits = 25;
             st_busy = 1;
             st_cache_hits = 6;
             st_cache_misses = 6;
             st_queue_depth = 2;
             st_queue_max = 64;
             st_inflight = 3;
             st_running = [ ("compile", 2); ("dse", 1) ];
             st_cancelled = 1;
             st_shed = 0;
             st_latency =
               [
                 { ls_kind = "compile"; ls_count = 30; ls_p50_ms = 0.25;
                   ls_p99_ms = 12.5 };
                 { ls_kind = "dse"; ls_count = 2; ls_p50_ms = 40.0;
                   ls_p99_ms = 41.75 };
               ];
           }),
      {|{"v": 1, "frame": "response", "id": 17, "status": "ok", "kind": "stats", "payload": {"served": 40, "evaluated": 12, "coalesced": 3, "memo_hits": 25, "busy": 1, "cache_hits": 6, "cache_misses": 6, "queue_depth": 2, "queue_max": 64, "inflight": 3, "running": [{"kind": "compile", "n": 2}, {"kind": "dse", "n": 1}], "cancelled": 1, "shed": 0, "latency": [{"kind": "compile", "count": 30, "p50_ms": 0.25, "p99_ms": 12.5}, {"kind": "dse", "count": 2, "p50_ms": 40.0, "p99_ms": 41.75}]}}|}
    );
  ]

let test_golden_payloads () =
  List.iter
    (fun (frame, want) ->
      let kind =
        match frame with
        | P.Response { r_reply = P.Done p; _ } -> P.payload_kind p
        | _ -> "?"
      in
      check ("golden " ^ kind ^ " payload") want (P.frame_to_string frame);
      match P.frame_of_string want with
      | Ok f -> checkb (kind ^ " decodes to the same frame") true (f = frame)
      | Error e -> Alcotest.failf "%s golden does not decode: %s" kind e)
    payload_goldens

(* ------------------------------------------------------------------ *)
(* Round-trips                                                        *)
(* ------------------------------------------------------------------ *)

let canon req = Support.Json.to_string (P.request_to_json req)

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match P.request_of_json (P.request_to_json req) with
      | Error e -> Alcotest.failf "decode %s: %s" (P.request_kind req) e
      | Ok req' -> check (P.request_kind req) (canon req) (canon req'))
    all_requests

let test_frame_roundtrip () =
  let frames =
    List.mapi
      (fun i req -> P.Request { q_id = i + 1; q_stream = i mod 2 = 0; q_req = req })
      all_requests
    @ [
        P.Response { r_id = 1; r_reply = P.Done P.R_pong };
        P.Response { r_id = 2; r_reply = P.Busy 3 };
        P.Response
          { r_id = 3;
            r_reply = P.Failed [ P.protocol_error "no such kernel %s" "x" ] };
        P.Event
          { e_id = 4;
            e_event =
              Support.Tracing.event ~stage:"lower" ~pass:"mem2reg"
                ~seconds:0.5 ~before:12 ~after:9 };
      ]
  in
  List.iter
    (fun f ->
      match P.frame_of_string (P.frame_to_string f) with
      | Error e -> Alcotest.failf "frame decode: %s" e
      | Ok f' -> check "frame" (P.frame_to_string f) (P.frame_to_string f'))
    frames

let test_lenient_defaults () =
  match Support.Json.parse {|{"kind": "compile", "kernel": "gemm"}|} with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match P.request_of_json j with
      | Error e -> Alcotest.fail e
      | Ok (P.Compile c) ->
          check "default flow" "direct" c.P.c_flow;
          check "default sched" "static" c.P.c_sched;
          Alcotest.(check (float 1e-9)) "default clock" 10.0 c.P.c_clock_ns;
          checkb "default passes" true (c.P.c_passes = None)
      | Ok r -> Alcotest.failf "wrong kind %s" (P.request_kind r));
  (* the directive defaults (II 1) apply only when "directives" is
     absent: an object without "ii" compiles unpipelined *)
  let env = H.create_env () in
  List.iter
    (fun (json, latency) ->
      match Result.bind (Support.Json.parse json) P.request_of_json with
      | Ok (P.Compile c) -> (
          match H.compile env ~trace:Support.Tracing.null c with
          | Ok r -> checki json latency r.P.cr_latency
          | Error _ -> Alcotest.failf "%s failed" json)
      | _ -> Alcotest.failf "%s: not a compile request" json)
    [
      ({|{"kind": "compile", "kernel": "gemm"}|}, 18740);
      ({|{"kind": "compile", "kernel": "gemm", "directives": {}}|}, 42036);
      ( {|{"kind": "compile", "kernel": "gemm", "directives": {"strategy": "inner"}}|},
        42036 );
    ];
  H.close_env env

(* Each wire default is a name its owner parses to the value the
   library defaults to. *)
let test_wire_defaults_owned () =
  let module K = Workloads.Kernels in
  let j = Mhls_driver.Driver.job ~kernel:"gemm" K.no_directives in
  checkb "flow" true (Flow.flow_of_name P.default_flow = Some j.flow);
  checkb "sched" true
    (Hls_backend.Backend.sched_of_name P.default_sched = Some j.sched);
  checkb "strategy" true
    (K.strategy_of_name P.default_strategy = Some K.no_directives.K.strategy);
  checkb "pipelined directives" true
    (H.directives_of_protocol (K.gemm ()) P.pipelined_directives
    = Ok K.pipelined);
  List.iter
    (fun (what, clock) ->
      Alcotest.(check (float 0.)) what Hls_backend.Op_model.default_clock_ns
        clock)
    [
      ("wire clock", P.default_clock_ns);
      ("job clock", j.clock_ns);
      ("dse clock", Mhls_dse.Search.default_params.clock_ns);
    ]

(* A partition spec the estimator cannot honour is rejected by name, by
   the request resolver (HLS905) and by a manifest (HLS901), instead of
   compiling as if unpartitioned. *)
let test_partition_check () =
  let env = H.create_env () in
  let compile spec =
    H.compile env ~trace:Support.Tracing.null
      {
        c_kernel = "gemm";
        c_flow = P.default_flow;
        c_sched = P.default_sched;
        c_directives =
          {
            P.pipelined_directives with
            d_strategy = "middle";
            d_partitions = [ spec ];
          };
        c_clock_ns = P.default_clock_ns;
        c_passes = None;
        c_disable = [];
      }
  in
  let name = Workloads.Kernels.partition_to_string in
  List.iter
    (fun (spec, bram) ->
      match compile spec with
      | Ok r -> checki (name spec ^ " BRAM") bram r.P.cr_bram
      | Error _ -> Alcotest.failf "%s rejected" (name spec))
    [ (("A", "cyclic", 4, 2), 6); (("A", "block", 2, 1), 4);
      (("B", "complete", 1, 1), 2) ];
  List.iter
    (fun spec ->
      let text = name spec in
      (match compile spec with
      | Ok _ -> Alcotest.failf "%s compiled" text
      | Error ds ->
          checkb (text ^ ": one HLS905 naming it") true
            (match ds with
            | [ d ] ->
                d.Support.Diag.rule = P.rule_protocol
                && Str_find.contains d.Support.Diag.message text
            | _ -> false));
      match
        Mhls_driver.Driver.parse_manifest
          ("gemm strategy=middle partition=" ^ text)
      with
      | Ok _ -> Alcotest.failf "manifest accepted %s" text
      | Error d ->
          checkb (text ^ ": HLS901 at manifest:1 naming it") true
            (d.Support.Diag.rule = "HLS901"
            && d.Support.Diag.func = Some "manifest:1"
            && Str_find.contains d.Support.Diag.message text))
    [
      ("A", "foo", 4, 2);
      ("A", "cyclic", 0, 2);
      ("A", "cyclic", 4, 0);
      ("A", "cyclic", 4, 3);
      ("Z", "cyclic", 4, 2);
    ];
  H.close_env env

let test_request_key () =
  (* Identical content gives identical keys; jobs that must never be
     coalesced have none. *)
  let k1 = P.request_key compile_full and k2 = P.request_key compile_full in
  checkb "same content, same key" true (k1 = k2 && k1 <> None);
  checkb "different content, different key" true
    (P.request_key compile_full <> P.request_key compile_min);
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "%s has no key" (P.request_kind r))
        true
        (P.request_key r = None))
    [ P.List_kernels; P.Stats; P.Ping; P.Shutdown ];
  (* The source is the key's second part, compared in full: an absent
     source differs from an empty one, and two sources that differ only
     in their last byte differ.  A source equal byte for byte, held in
     another string, is the same key. *)
  let opt s =
    match opt_req with P.Opt o -> P.Opt { o with op_source = s } | r -> r
  in
  let lint s =
    match lint_req with
    | P.Lint l -> P.Lint { l with l_kernel = None; l_source = s }
    | r -> r
  in
  let big = String.make 100_000 'x' in
  let last = String.sub big 0 (String.length big - 1) ^ "y" in
  let key r =
    match P.request_key r with
    | Some k -> k
    | None -> Alcotest.failf "%s has no key" (P.request_kind r)
  in
  List.iter
    (fun (what, a, b) ->
      let t = P.Key_table.create 4 in
      P.Key_table.replace t (key a) ();
      checkb (what ^ ": different keys") true (key a <> key b);
      checkb (what ^ ": not found under the other") false
        (P.Key_table.mem t (key b)))
    [
      ("opt: no source vs empty", opt None, opt (Some ""));
      ("opt: last byte", opt (Some big), opt (Some last));
      ("lint: no source vs empty", lint None, lint (Some ""));
      ("lint: last byte", lint (Some big), lint (Some last));
    ];
  let t = P.Key_table.create 4 in
  P.Key_table.replace t (key (opt (Some big))) ();
  let copy = Bytes.to_string (Bytes.of_string big) in
  checkb "an equal source in another string is the same key" true
    (P.Key_table.mem t (key (opt (Some copy))))

(* A response is its head (the length prefix, a fixed head and the id)
   and then the reply's bytes: the frame [encode_frame] writes, and the
   length prefix followed by what the frame codec prints. *)
let test_response_head () =
  let replies =
    List.filter_map
      (function
        | P.Response { r_reply; _ }, _ -> Some r_reply | _ -> None)
      payload_goldens
    @ [
        P.Failed
          [ Support.Diag.error ~rule:"HLS905" ~func:"f" ~hint:"h" "boom %d" 1 ];
        P.Busy 64;
      ]
  in
  List.iter
    (fun r ->
      let name =
        match r with
        | P.Done p -> P.payload_kind p
        | P.Failed _ -> "error"
        | P.Busy _ -> "busy"
      in
      List.iter
        (fun id ->
          let frame = P.Response { r_id = id; r_reply = r } in
          let body = P.frame_to_string frame in
          let prefix = Bytes.create 4 in
          Bytes.set_int32_be prefix 0 (Int32.of_int (String.length body));
          let reply = P.encode_reply r in
          let got = P.response_head ~id reply ^ (reply :> string) in
          let what = Printf.sprintf "%s, id %d" name id in
          check (what ^ ": encode_frame") (P.encode_frame frame) got;
          check (what ^ ": prefix and frame_to_string")
            (Bytes.to_string prefix ^ body) got)
        [ 0; 1; -1; max_int ])
    replies

let test_incremental_framing () =
  let f1 = P.Request { q_id = 1; q_stream = false; q_req = P.Ping } in
  let f2 = P.Request { q_id = 2; q_stream = false; q_req = P.Stats } in
  let wire = P.encode_frame f1 ^ P.encode_frame f2 in
  (* A partial prefix yields no frames and keeps the tail intact. *)
  let cut = String.length (P.encode_frame f1) + 2 in
  (match P.decode_frames (String.sub wire 0 cut) with
  | Error e -> Alcotest.fail e
  | Ok (frames, rest) ->
      checki "one complete frame" 1 (List.length frames);
      checki "partial tail kept" 2 (String.length rest));
  (* The full buffer decodes both frames with nothing left over. *)
  (match P.decode_frames wire with
  | Error e -> Alcotest.fail e
  | Ok (frames, rest) ->
      checki "two frames" 2 (List.length frames);
      check "no tail" "" rest;
      List.iteri
        (fun i f ->
          match f with
          | Ok f' ->
              check "frame body"
                (P.frame_to_string (if i = 0 then f1 else f2))
                (P.frame_to_string f')
          | Error e -> Alcotest.fail e)
        frames);
  (* An oversized length prefix is a connection-fatal framing error. *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 0x7fffffffl;
  checkb "oversized frame rejected" true
    (match P.decode_frames (Bytes.to_string huge) with
    | Error _ -> true
    | Ok _ -> false);
  checkb "oversized frame rejected by the assembler" true
    (match P.feed (P.assembler ()) huge 0 4 with
    | Error _ -> true
    | Ok _ -> false);
  (* The reactor's assembler: a multi-MiB frame between two small ones,
     delivered in 64 KiB reads and in 1-byte reads, yields exactly the
     three frames, intact and in order. *)
  let bulk =
    P.Request
      {
        q_id = 3;
        q_stream = false;
        q_req =
          (match opt_req with
          | P.Opt o ->
              P.Opt { o with op_source = Some (String.make (3 lsl 20) 'x') }
          | r -> r);
      }
  in
  let frames = [ f1; bulk; f2 ] in
  let wire = Bytes.of_string (String.concat "" (List.map P.encode_frame frames)) in
  let deliver piece =
    let a = P.assembler () in
    let got = ref [] in
    let at = ref 0 in
    while !at < Bytes.length wire do
      let n = min piece (Bytes.length wire - !at) in
      (match P.feed a wire !at n with
      | Ok fs -> got := !got @ fs
      | Error e -> Alcotest.fail e);
      at := !at + n
    done;
    checki (Printf.sprintf "%d-byte reads: three frames" piece) 3
      (List.length !got);
    List.iter2
      (fun want got ->
        match got with
        | Ok f ->
            checkb
              (Printf.sprintf "%d-byte reads: frame intact" piece)
              true
              (P.frame_to_string f = P.frame_to_string want)
        | Error e -> Alcotest.fail e)
      frames !got
  in
  deliver 65536;
  deliver 1

(* Frames carrying arbitrary byte strings (the codec tests'
   generators), fed to one assembler in pieces of 1 byte to 64 KiB,
   come out as [frame_of_string] of each body, in order.  The same
   wire as one string leaves no tail, and cut anywhere it leaves the
   incomplete frame as the tail. *)
let frame_carrying i s =
  match i mod 3 with
  | 0 ->
      P.Request
        {
          q_id = i;
          q_stream = false;
          q_req =
            (match opt_req with
            | P.Opt o -> P.Opt { o with op_source = Some s }
            | r -> r);
        }
  | 1 ->
      P.Response
        {
          r_id = i;
          r_reply =
            P.Done
              (P.R_opt
                 { P.or_ir = s; or_passes = 3; or_seconds = 0.25;
                   or_par_status = None; or_verdict = Some s; or_safe = true });
        }
  | _ ->
      P.Response
        {
          r_id = i;
          r_reply = P.Failed [ Support.Diag.error ~rule:"HLS903" "%s" s ];
        }

let prop_split_feed =
  let open QCheck.Gen in
  let strings =
    list_size (int_range 1 4)
      (frequency [ (12, Test_json.gen_bytes); (1, Test_json.gen_large) ])
  in
  let pieces =
    list_size (int_range 1 50)
      (frequency [ (1, int_range 1 8); (2, int_range 1 65536) ])
  in
  QCheck.Test.make ~name:"frames survive any split" ~count:60
    (QCheck.make
       ~print:(fun (ss, ps) ->
         Printf.sprintf "strings %s, pieces %s"
           (String.concat " " (List.map Test_json.print_bytes ss))
           (String.concat " " (List.map string_of_int ps)))
       (pair strings pieces))
    (fun (ss, ps) ->
      let frames = List.mapi frame_carrying ss in
      let want =
        List.map (fun f -> P.frame_of_string (P.frame_to_string f)) frames
      in
      let wire = String.concat "" (List.map P.encode_frame frames) in
      let a = P.assembler () in
      let ps = Array.of_list ps in
      let rec go at i acc =
        if at >= String.length wire then Ok (List.concat (List.rev acc))
        else
          let k = min ps.(i mod Array.length ps) (String.length wire - at) in
          match P.feed a (Bytes.unsafe_of_string wire) at k with
          | Ok fs -> go (at + k) (i + 1) (fs :: acc)
          | Error e -> Error e
      in
      (* cut after the first [ps.(0)] bytes: the frames that end by
         the cut, and the rest of the cut as the tail *)
      let cut = min ps.(0) (String.length wire) in
      let ends =
        let at = ref 0 in
        List.map
          (fun f ->
            at := !at + String.length (P.encode_frame f);
            !at)
          frames
      in
      let whole = List.length (List.filter (fun e -> e <= cut) ends) in
      let consumed = if whole = 0 then 0 else List.nth ends (whole - 1) in
      let cut_want =
        ( List.filteri (fun i _ -> i < whole) want,
          String.sub wire consumed (cut - consumed) )
      in
      go 0 0 [] = Ok want
      && P.decode_frames wire = Ok (want, "")
      && P.decode_frames (String.sub wire 0 cut) = Ok cut_want)

(* ------------------------------------------------------------------ *)
(* Live daemon                                                        *)
(* ------------------------------------------------------------------ *)

let render_reply r =
  Support.Json.to_string (P.frame_to_json (P.Response { r_id = 0; r_reply = r }))

let compile_kernel name =
  P.Compile
    {
      c_kernel = name;
      c_flow = "direct";
      c_sched = "static";
      c_directives = P.pipelined_directives;
      c_clock_ns = 10.0;
      c_passes = None;
      c_disable = [];
    }

let get_stats c =
  match Client.request c P.Stats with
  | Ok (P.Done (P.R_stats s)) -> s
  | Ok r -> Alcotest.failf "stats: unexpected reply %s" (render_reply r)
  | Error e -> Alcotest.failf "stats: %s" e

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mhlsc-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(** A bare connection whose reads give up after 5 s.  It fails the
    test when the daemon's listen backlog stays full for 5 s: a daemon
    that stopped accepting. *)
let timed_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if Unix.gettimeofday () >= deadline then begin
          close_quietly fd;
          Alcotest.fail "the daemon stopped accepting connections"
        end;
        Unix.sleepf 0.001;
        go ()
  in
  go ();
  Unix.clear_nonblock fd;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

(** Send [req] as request [id] on [fd] and return the reply. *)
let ask fd id req =
  P.write_frame fd (P.Request { q_id = id; q_stream = false; q_req = req });
  match P.read_frame fd with
  | Ok (P.Response { r_id; r_reply }) when r_id = id -> r_reply
  | Ok f -> Alcotest.failf "unexpected frame %s" (P.frame_to_string f)
  | Error e -> Alcotest.failf "no reply to %s: %s" (P.request_kind req) e

(** Run [f sock client] against a live daemon wired exactly like
    [mhlsc serve]: oversubscribed session, the session's domain pool
    as the reactor's executor.  [jobs = 1] keeps the executor inline
    (the sequential daemon); [tweak] adjusts the config and [wrap] the
    dispatcher.  Whatever [f] did, the daemon is then asked to shut
    down over a fresh connection, so a test whose body fails, or whose
    daemon stopped answering, fails instead of hanging; a daemon
    already gone refuses the connection. *)
let with_daemon ?(jobs = 1) ?(tweak = fun c -> c) ?(wrap = fun d -> d) f =
  let sock = fresh_sock () in
  if Sys.file_exists sock then Sys.remove sock;
  let config =
    tweak { Server.default_config with Server.socket_path = Some sock }
  in
  let daemon =
    Domain.spawn (fun () ->
        let env = H.create_env ~jobs ~oversubscribe:true () in
        Fun.protect
          ~finally:(fun () -> H.close_env env)
          (fun () ->
            match
              Server.serve ~config
                ~counters:(fun () -> H.counters env)
                ~exec:(H.background env)
                ~dispatch:(wrap (H.dispatch env)) ()
            with
            | Ok () -> ()
            | Error ds -> failwith (Support.Diag.render ds)))
  in
  Fun.protect
    ~finally:(fun () ->
      (match timed_connect sock with
      | fd ->
          (try ignore (ask fd 0 P.Shutdown) with _ -> ());
          close_quietly fd
      | exception _ -> ());
      Domain.join daemon)
    (fun () ->
      match Client.connect_unix ~retry_for:10.0 sock with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
          Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f sock c))

(** A bare protocol connection (no client-side id bookkeeping) for
    tests that need to send pathological or carefully interleaved
    frames. *)
let raw_connect (sock : string) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let test_daemon () =
  with_daemon (fun sock c ->
      (* Ping. *)
      (match Client.request c P.Ping with
      | Ok (P.Done P.R_pong) -> ()
      | Ok r -> Alcotest.failf "ping: %s" (render_reply r)
      | Error e -> Alcotest.failf "ping: %s" e);

      (* Two clients, same compile: the first evaluates, the second is
         served from the memo — the rendered CLI output must be
         byte-identical across the two connections. *)
      let req = compile_kernel "gemm" in
      let resp_of cl =
        match Client.request cl req with
        | Ok (P.Done (P.R_compile r)) -> r
        | Ok r -> Alcotest.failf "compile: %s" (render_reply r)
        | Error e -> Alcotest.failf "compile: %s" e
      in
      let r1 = resp_of c in
      let r2 =
        match Client.connect_unix sock with
        | Error e -> Alcotest.failf "second client: %s" e
        | Ok c2 ->
            Fun.protect ~finally:(fun () -> Client.close c2) (fun () ->
                resp_of c2)
      in
      check "two clients byte-identical" (R.compile r1) (R.compile r2);

      (* ...and structurally identical to running the handler directly
         the way the CLI does (timing excluded: wall-clock seconds are
         the one legitimately run-dependent field). *)
      let env = H.create_env ~jobs:1 () in
      let cli =
        Fun.protect
          ~finally:(fun () -> H.close_env env)
          (fun () ->
            match
              H.compile env ~trace:Support.Tracing.null
                {
                  P.c_kernel = "gemm";
                  c_flow = "direct";
                  c_sched = "static";
                  c_directives = P.pipelined_directives;
                  c_clock_ns = 10.0;
                  c_passes = None;
                  c_disable = [];
                }
            with
            | Ok r -> r
            | Error ds ->
                Alcotest.failf "cli compile: %s" (Support.Diag.render ds))
      in
      check "daemon report = CLI report" cli.P.cr_report r1.P.cr_report;
      checki "latency" cli.P.cr_latency r1.P.cr_latency;
      checki "ii" cli.P.cr_ii r1.P.cr_ii;
      checki "bram" cli.P.cr_bram r1.P.cr_bram;
      checki "dsp" cli.P.cr_dsp r1.P.cr_dsp;

      (* Coalescing: two identical, not-yet-seen requests written in
         one segment arrive in one intake wave, so exactly one
         evaluation serves both. *)
      let before = get_stats c in
      let replies =
        match Client.pipeline c [ compile_kernel "fir"; compile_kernel "fir" ]
        with
        | Ok rs -> rs
        | Error e -> Alcotest.failf "pipeline: %s" e
      in
      (match replies with
      | [ a; b ] ->
          checkb "both done" true
            (match (a, b) with
            | P.Done (P.R_compile _), P.Done (P.R_compile _) -> true
            | _ -> false);
          check "coalesced replies identical" (render_reply a)
            (render_reply b)
      | _ -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
      let after = get_stats c in
      checki "one evaluation for the pair" 1
        (after.P.st_evaluated - before.P.st_evaluated);
      checki "one request coalesced" 1
        (after.P.st_coalesced - before.P.st_coalesced);

      (* Memoization: resubmitting the identical request re-runs
         nothing. *)
      let before = after in
      let _ = resp_of c in
      let after = get_stats c in
      checki "no new evaluation" 0 (after.P.st_evaluated - before.P.st_evaluated);
      checkb "memo hit recorded" true
        (after.P.st_memo_hits > before.P.st_memo_hits);

      (* Streaming: a fresh compile forwards pass events before the
         reply. *)
      let events = ref 0 in
      (match
         Client.request ~stream:true
           ~on_event:(fun _ -> incr events)
           c (compile_kernel "mvt")
       with
      | Ok (P.Done (P.R_compile _)) -> ()
      | Ok r -> Alcotest.failf "stream compile: %s" (render_reply r)
      | Error e -> Alcotest.failf "stream compile: %s" e);
      checkb "pass events streamed" true (!events > 0);

      (* Stats shape. *)
      let s = get_stats c in
      checki "queue bound" Server.default_config.Server.queue_max
        s.P.st_queue_max;
      checkb "compile latency tracked" true
        (List.exists
           (fun l -> l.P.ls_kind = "compile" && l.P.ls_count >= 3)
           s.P.st_latency);
      checkb "p99 >= p50" true
        (List.for_all
           (fun l -> l.P.ls_p99_ms >= l.P.ls_p50_ms)
           s.P.st_latency);

      (* Lint through the daemon equals lint in-process. *)
      let daemon_lint =
        match
          Client.request c
            (P.Lint
               {
                 l_kernel = Some "gemm";
                 l_source = None;
                 l_directives = P.pipelined_directives;
                 l_rules = None;
                 l_werror = false;
                 l_top = None;
                 l_passes = None;
                 l_disable = [];
               })
        with
        | Ok (P.Done (P.R_lint r)) -> r.P.lr_diags
        | Ok r -> Alcotest.failf "lint: %s" (render_reply r)
        | Error e -> Alcotest.failf "lint: %s" e
      in
      let cli_lint =
        match
          H.lint
            {
              P.l_kernel = Some "gemm";
              l_source = None;
              l_directives = P.pipelined_directives;
              l_rules = None;
              l_werror = false;
              l_top = None;
              l_passes = None;
              l_disable = [];
            }
        with
        | Ok r -> r.P.lr_diags
        | Error ds -> Alcotest.failf "cli lint: %s" (Support.Diag.render ds)
      in
      check "daemon lint = CLI lint" (Support.Diag.render cli_lint)
        (Support.Diag.render daemon_lint);

      (* Clean shutdown: acknowledged, loop exits, socket removed. *)
      (match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e));
  ()

(** A daemon with a dummy dispatcher: enough for ping/stats/shutdown,
    which the server answers itself. *)
let dummy_daemon (config : Server.config) : (unit, H.Diag.t list) result Domain.t
    =
  Domain.spawn (fun () ->
      Server.serve ~config
        ~dispatch:(fun ~trace:_ _ ->
          Error [ P.protocol_error "not implemented" ])
        ())

let shutdown_daemon sock =
  match Client.connect_unix ~retry_for:10.0 sock with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.request c P.Shutdown with
          | Ok (P.Done P.R_shutdown) -> ()
          | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
          | Error e -> Alcotest.failf "shutdown: %s" e)

let test_socket_removed () =
  (* After the daemon test the socket must be gone; run a tiny
     dedicated daemon to assert it without ordering assumptions. *)
  let sock = fresh_sock () in
  let config =
    { Server.default_config with Server.socket_path = Some sock }
  in
  let daemon = dummy_daemon config in
  shutdown_daemon sock;
  (match Domain.join daemon with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "serve: %s" (Support.Diag.render ds));
  checkb "socket unlinked on shutdown" false (Sys.file_exists sock)

(* ------------------------------------------------------------------ *)
(* Lifecycle regressions                                              *)
(* ------------------------------------------------------------------ *)

let test_sentinel_id () =
  (* A client-sent response frame is a protocol error the server
     cannot attribute to any request id: it must answer with the
     reserved sentinel id (-1), never with a real id — and id 0 must
     remain usable as an ordinary request id. *)
  with_daemon (fun sock c ->
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          P.write_frame fd (P.Response { r_id = 5; r_reply = P.Done P.R_pong });
          (match P.read_frame fd with
          | Ok (P.Response { r_id; r_reply = P.Failed _ }) ->
              checki "sentinel id" P.sentinel_id r_id
          | Ok f -> Alcotest.failf "unexpected frame %s" (P.frame_to_string f)
          | Error e -> Alcotest.failf "read: %s" e);
          (* The connection survives, and request id 0 round-trips. *)
          P.write_frame fd
            (P.Request { q_id = 0; q_stream = false; q_req = P.Ping });
          match P.read_frame fd with
          | Ok (P.Response { r_id = 0; r_reply = P.Done P.R_pong }) -> ()
          | Ok f -> Alcotest.failf "unexpected frame %s" (P.frame_to_string f)
          | Error e -> Alcotest.failf "read: %s" e);
      match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e)

let test_unicode_over_socket () =
  (* U+1F600 as Python's json.dumps sends it, a surrogate pair, comes
     back in the HLS903 message as its four UTF-8 bytes; a lone
     surrogate is a bad frame, answered HLS905 under the sentinel id.
     The replies are checked after shutdown, so a failure cannot leave
     the daemon running. *)
  let replies =
    with_daemon (fun sock c ->
        let fd = raw_connect sock in
        let ask kernel =
          let body =
            {|{"v": 1, "frame": "request", "id": 1, "kind": "compile", |}
            ^ Printf.sprintf {|"kernel": "%s"}|} kernel
          in
          let prefix = Bytes.create 4 in
          Bytes.set_int32_be prefix 0 (Int32.of_int (String.length body));
          let wire = Bytes.to_string prefix ^ body in
          ignore (Unix.write_substring fd wire 0 (String.length wire));
          P.read_frame fd
        in
        let replies =
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let pair = ask {|k\ud83d\ude00|} in
              let lone = ask {|k\ud83d|} in
              [ pair; lone ])
        in
        ignore (Client.request c P.Shutdown);
        replies)
  in
  let diag = function
    | Ok (P.Response { r_id; r_reply = P.Failed [ d ] }) ->
        (r_id, d.Support.Diag.rule, d.Support.Diag.message)
    | Ok f -> Alcotest.failf "unexpected frame %s" (P.frame_to_string f)
    | Error e -> Alcotest.failf "read: %s" e
  in
  match List.map diag replies with
  | [ (id, rule, msg); (id', rule', _) ] ->
      checki "request id" 1 id;
      check "unknown kernel" "HLS903" rule;
      check "name decoded to UTF-8" "unknown kernel 'k\xF0\x9F\x98\x80'" msg;
      checki "sentinel id" P.sentinel_id id';
      check "lone surrogate" P.rule_protocol rule'
  | _ -> Alcotest.fail "two replies"

let test_latency_ring_bounded () =
  (* The per-kind latency store is a bounded ring: after far more than
     its capacity of samples, the reported count must stay at the
     capacity while every request was still served. *)
  with_daemon (fun _sock c ->
      let batch = List.init 1000 (fun _ -> P.Ping) in
      for _ = 1 to 5 do
        match Client.pipeline c batch with
        | Ok rs ->
            checki "batch answered" 1000 (List.length rs);
            List.iter
              (function
                | P.Done P.R_pong -> ()
                | r -> Alcotest.failf "ping: %s" (render_reply r))
              rs
        | Error e -> Alcotest.failf "pipeline: %s" e
      done;
      let s = get_stats c in
      checkb "all pings served" true (s.P.st_served >= 5000);
      (match
         List.find_opt (fun l -> l.P.ls_kind = "ping") s.P.st_latency
       with
      | Some l -> checki "ring bounded at capacity" 4096 l.P.ls_count
      | None -> Alcotest.fail "no ping latency bucket");
      match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e)

let test_signal_survival () =
  (* A stray signal mid-read used to surface as an uncaught EINTR and
     kill the daemon.  Hammer the process with SIGUSR1 while work is
     in flight; the daemon must keep answering. *)
  with_daemon ~jobs:2 (fun _sock c ->
      let stop = Atomic.make false in
      let killer =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Unix.kill (Unix.getpid ()) Sys.sigusr1;
              Unix.sleepf 0.001
            done)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join killer)
        (fun () ->
          (match Client.request c (compile_kernel "gemm") with
          | Ok (P.Done (P.R_compile _)) -> ()
          | Ok r -> Alcotest.failf "compile: %s" (render_reply r)
          | Error e -> Alcotest.failf "compile: %s" e);
          for _ = 1 to 20 do
            match Client.request c P.Ping with
            | Ok (P.Done P.R_pong) -> ()
            | Ok r -> Alcotest.failf "ping: %s" (render_reply r)
            | Error e -> Alcotest.failf "ping: %s" e
          done);
      match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e)

let test_live_socket_refused () =
  (* A second daemon pointed at a live socket must refuse to start
     with HLS906 — and must not have unlinked the live daemon's
     socket in the process. *)
  with_daemon (fun sock c ->
      (match
         Server.serve
           ~config:
             { Server.default_config with Server.socket_path = Some sock }
           ~dispatch:(fun ~trace:_ _ ->
             Error [ P.protocol_error "not implemented" ])
           ()
       with
      | Ok () -> Alcotest.fail "second daemon started on a live socket"
      | Error (d :: _) ->
          check "refusal rule" P.rule_socket_in_use d.Support.Diag.rule
      | Error [] -> Alcotest.fail "empty diagnostics");
      checkb "live socket left alone" true (Sys.file_exists sock);
      (* The first daemon is unharmed. *)
      (match Client.request c P.Ping with
      | Ok (P.Done P.R_pong) -> ()
      | Ok r -> Alcotest.failf "ping: %s" (render_reply r)
      | Error e -> Alcotest.failf "ping: %s" e);
      match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e)

let test_stale_socket_recovered () =
  (* A socket file left behind by a crashed daemon (nothing accepting)
     must be removed and startup must proceed. *)
  let sock = fresh_sock () in
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX sock);
  Unix.listen stale 1;
  Unix.close stale;
  checkb "stale socket file present" true (Sys.file_exists sock);
  let daemon =
    dummy_daemon { Server.default_config with Server.socket_path = Some sock }
  in
  shutdown_daemon sock;
  (match Domain.join daemon with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "serve: %s" (Support.Diag.render ds));
  checkb "socket unlinked on shutdown" false (Sys.file_exists sock)

(* ------------------------------------------------------------------ *)
(* Concurrent evaluation                                              *)
(* ------------------------------------------------------------------ *)

let long_dse kernel max_evals =
  P.Dse
    {
      ds_kernel = kernel;
      ds_sched = "static";
      ds_max_evals = Some max_evals;
      ds_rounds = None;
      ds_stable = None;
      ds_budget_bram = None;
      ds_budget_dsp = None;
      ds_budget_lut = None;
      ds_clock_ns = 10.0;
    }

let rec poll_stats ?(deadline = 10.0) c pred what =
  let t0 = Unix.gettimeofday () in
  let s = get_stats c in
  if pred s then s
  else if deadline <= 0.0 then
    Alcotest.failf "timed out waiting for %s" what
  else begin
    Unix.sleepf 0.01;
    poll_stats ~deadline:(deadline -. (Unix.gettimeofday () -. t0)) c pred
      what
  end

let test_concurrent_groups () =
  (* The tentpole: a short compile pipelined behind a long DSE sweep
     must be answered first — the sweep evaluates on a worker while
     the reactor keeps serving.  Both frames travel in one write, so
     they arrive in one intake wave. *)
  with_daemon ~jobs:4 (fun sock c ->
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let wire =
            P.encode_frame
              (P.Request
                 { q_id = 1; q_stream = false; q_req = long_dse "gemm" 24 })
            ^ P.encode_frame
                (P.Request
                   { q_id = 2; q_stream = false; q_req = compile_kernel "fir" })
          in
          let b = Bytes.of_string wire in
          let rec write_all at =
            if at < Bytes.length b then
              write_all (at + Unix.write fd b at (Bytes.length b - at))
          in
          write_all 0;
          let first_response () =
            match P.read_frame fd with
            | Ok (P.Response { r_id; r_reply = P.Done _ }) -> r_id
            | Ok f ->
                Alcotest.failf "unexpected frame %s" (P.frame_to_string f)
            | Error e -> Alcotest.failf "read: %s" e
          in
          checki "compile answered before the sweep" 2 (first_response ());
          (* While the sweep is still in flight its kind is visible in
             the stats; then the sweep's own reply lands. *)
          checki "dse reply follows" 1 (first_response ()));
      match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e)

let test_cancellation () =
  (* With the dse budget at 1, a second sweep queues behind the first;
     when its only waiter disconnects before it starts, the group must
     be cancelled, never evaluated.  The first sweep is held on its
     worker until the cancellation has been seen, so it outlasts the
     10 ms stats polls however fast it compiles. *)
  let release = Atomic.make false in
  let hold dispatch ~trace req =
    (match req with
    | P.Dse { ds_kernel = "gemm"; _ } ->
        while not (Atomic.get release) do Unix.sleepf 0.001 done
    | _ -> ());
    dispatch ~trace req
  in
  with_daemon ~jobs:4 ~wrap:hold (fun sock c ->
      let a = raw_connect sock in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set release true;
          try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          P.write_frame a
            (P.Request
               { q_id = 1; q_stream = false; q_req = long_dse "gemm" 48 });
          let _ =
            poll_stats c
              (fun s -> List.mem_assoc "dse" s.P.st_running)
              "the first sweep to start"
          in
          let evaluated_before = (get_stats c).P.st_evaluated in
          let b = raw_connect sock in
          P.write_frame b
            (P.Request
               { q_id = 1; q_stream = false; q_req = long_dse "fir" 48 });
          let _ =
            poll_stats c
              (fun s -> s.P.st_queue_depth >= 1)
              "the second sweep to queue"
          in
          Unix.close b;
          let s =
            poll_stats c
              (fun s -> s.P.st_cancelled >= 1)
              "the orphaned sweep to be cancelled"
          in
          checki "nothing extra evaluated" evaluated_before s.P.st_evaluated;
          checki "queue drained" 0 s.P.st_queue_depth;
          (* The first sweep still completes normally. *)
          Atomic.set release true;
          match P.read_frame a with
          | Ok (P.Response { r_id = 1; r_reply = P.Done (P.R_dse _) }) -> ()
          | Ok f -> Alcotest.failf "unexpected frame %s" (P.frame_to_string f)
          | Error e -> Alcotest.failf "read: %s" e);
      match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e)

let test_memory_shed () =
  (* A zero memory cap sheds the response memo after every completion:
     an identical resubmission re-evaluates instead of memo-hitting,
     and the shed counter records it. *)
  with_daemon
    ~tweak:(fun c -> { c with Server.max_rss_mb = Some 0 })
    (fun _sock c ->
      let run () =
        match Client.request c (compile_kernel "gemm") with
        | Ok (P.Done (P.R_compile _)) -> ()
        | Ok r -> Alcotest.failf "compile: %s" (render_reply r)
        | Error e -> Alcotest.failf "compile: %s" e
      in
      run ();
      run ();
      let s = get_stats c in
      checki "both compiles evaluated" 2 s.P.st_evaluated;
      checki "memo never hit" 0 s.P.st_memo_hits;
      checkb "shed recorded" true (s.P.st_shed >= 1);
      match Client.request c P.Shutdown with
      | Ok (P.Done P.R_shutdown) -> ()
      | Ok r -> Alcotest.failf "shutdown: %s" (render_reply r)
      | Error e -> Alcotest.failf "shutdown: %s" e)

(* ------------------------------------------------------------------ *)
(* Hostile clients                                                    *)
(* ------------------------------------------------------------------ *)

(** [{"kind": "opt", "synth": n}]: the daemon makes a module of [n]
    functions and optimizes it; for 1500 the reply is 0.69 MB. *)
let synth_opt n =
  P.Opt
    {
      op_source = None;
      op_synth = Some n;
      op_passes = None;
      op_parallel = false;
      op_jobs = 1;
      op_parsafe = false;
      op_json = false;
    }

(** Ask for [stats] on [fd], from request [id] on, every 10 ms until
    [pred] holds; returns them and the next unused id.  Fails after
    10 s. *)
let await_stats fd id pred =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go id =
    match ask fd id P.Stats with
    | P.Done (P.R_stats s) when pred s -> (s, id + 1)
    | P.Done (P.R_stats _) when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go (id + 1)
    | P.Done (P.R_stats _) -> Alcotest.fail "timed out waiting on stats"
    | r -> Alcotest.failf "stats: %s" (render_reply r)
  in
  go id

(* A client that never reads its 0.69 MB reply must not stall the
   others: the reply waits in that connection's queue while a ping on
   another connection is answered at once.  A reactor that writes
   replies with blocking writes answers neither the stats polls nor the
   ping. *)
let test_stalled_reader () =
  with_daemon (fun sock _ ->
      let stalled = raw_connect sock and probe = timed_connect sock in
      Fun.protect
        ~finally:(fun () -> List.iter close_quietly [ stalled; probe ])
        (fun () ->
          P.write_frame stalled
            (P.Request { q_id = 1; q_stream = false; q_req = synth_opt 1500 });
          (* until the reply has been produced and handed to [stalled] *)
          let _, id =
            await_stats probe 1 (fun s ->
                s.P.st_evaluated >= 1 && s.P.st_inflight = 0)
          in
          let t0 = Unix.gettimeofday () in
          (match ask probe id P.Ping with
          | P.Done P.R_pong -> ()
          | r -> Alcotest.failf "ping: %s" (render_reply r));
          let dt = Unix.gettimeofday () -. t0 in
          if dt > 1.0 then Alcotest.failf "ping answered after %.2f s" dt))

(* Resident memory of this process, which runs the daemon, in MiB. *)
let rss_mib () =
  match
    In_channel.with_open_text "/proc/self/statm" In_channel.input_line
  with
  | Some line -> (
      match String.split_on_char ' ' line with
      | _ :: pages :: _ -> int_of_string pages * 4096 / (1024 * 1024)
      | _ -> Alcotest.failf "statm: %s" line)
  | None -> Alcotest.fail "statm is empty"
  | exception Sys_error _ -> Alcotest.skip ()

(* Back-pressure stops reading a connection, but the replies owed to
   the requests it already sent still join its queue.  400 identical
   requests in one write, on a connection that never reads, ride along
   on one evaluation on a worker; the one 0.69 MB reply they are all
   owed must be queued by reference, a few dozen bytes of head per
   request.  Queues that held a private copy of the frame per rider
   grew this process by 289 MiB. *)
let test_riders_share_reply () =
  let riders = 400 in
  with_daemon ~jobs:2 (fun sock _ ->
      let stalled = raw_connect sock and probe = timed_connect sock in
      Fun.protect
        ~finally:(fun () -> List.iter close_quietly [ stalled; probe ])
        (fun () ->
          (* a request of the same size first, so that its evaluation's
             memory is in the baseline *)
          (match ask probe 1 (synth_opt 1499) with
          | P.Done (P.R_opt _) -> ()
          | r -> Alcotest.failf "opt: %s" (render_reply r));
          let before = rss_mib () in
          P.write_frames stalled
            (List.init riders (fun i ->
                 P.Request
                   { q_id = i; q_stream = false; q_req = synth_opt 1500 }));
          let s, _ =
            await_stats probe 2 (fun s ->
                s.P.st_evaluated >= 2 && s.P.st_inflight = 0)
          in
          checki "one evaluation for all of them" 2 s.P.st_evaluated;
          checki "the others rode along" (riders - 1) s.P.st_coalesced;
          let grown = rss_mib () - before in
          if grown > 64 then
            Alcotest.failf "%d MiB more resident with %d replies queued" grown
              riders))

(* [select] fails on a descriptor at or above FD_SETSIZE (1024), so
   connections past the cap are closed at accept: after 1100
   connections from this process (interleaved with the daemon's own
   descriptors), a connection made before them still gets its ping
   answered, and the newest one, on a descriptor over the cap, was
   closed by the daemon.  A host whose descriptor limit stops the
   flood short skips the test. *)
let test_connection_cap () =
  with_daemon (fun sock _ ->
      let probe = timed_connect sock in
      let flood = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter close_quietly (probe :: !flood))
        (fun () ->
          (match ask probe 1 P.Ping with
          | P.Done P.R_pong -> ()
          | r -> Alcotest.failf "ping: %s" (render_reply r));
          (try
             for _ = 1 to 1100 do
               flood := timed_connect sock :: !flood
             done
           with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
             Printf.printf
               "skipped: the descriptor limit stopped the flood at %d of \
                1100 connections\n"
               (List.length !flood);
             Alcotest.skip ());
          (match ask probe 2 P.Ping with
          | P.Done P.R_pong -> ()
          | r -> Alcotest.failf "ping: %s" (render_reply r));
          checki "the newest connection is closed by the daemon" 0
            (Unix.read (List.hd !flood) (Bytes.create 1) 0 1)))

(* Over TCP a reply leaves as two writes, its head and then its bytes,
   so the daemon turns Nagle's algorithm off: with it on, each small
   reply waits about 40 ms for the client's delayed acknowledgement of
   the head, and 20 pings take most of a second. *)
let test_tcp_replies_not_delayed () =
  let port =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> close_quietly s)
      (fun () ->
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket")
  in
  with_daemon
    ~tweak:(fun c -> { c with Server.tcp_port = Some port })
    (fun _ _ ->
      match Client.connect_tcp ~retry_for:10.0 ~port () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              for _ = 1 to 20 do
                match Client.request c P.Ping with
                | Ok (P.Done P.R_pong) -> ()
                | Ok r -> Alcotest.failf "ping: %s" (render_reply r)
                | Error e -> Alcotest.failf "ping: %s" e
              done;
              let dt = Unix.gettimeofday () -. t0 in
              if dt > 0.4 then
                Alcotest.failf "20 pings over TCP took %.0f ms" (dt *. 1000.0)))

(* In parallel mode the reported seconds are the call's wall time, not
   a sum over worker domains, so they cannot exceed the wall time
   measured around the handler.  The default pipeline's function-local
   passes run three times over, so the fanned-out tail outweighs module
   generation and printing; telling the two apart needs a host with at
   least two cores. *)
let test_opt_parallel_seconds () =
  let tail =
    List.filter_map
      (fun (p : Llvmir.Pass.pass) ->
        match p.body with
        | Llvmir.Pass.Per_function _ -> Some p.name
        | Llvmir.Pass.Whole_module _ -> None)
      Llvmir.Pass.default_pipeline
  in
  let passes = tail @ tail @ tail in
  let req =
    {
      P.op_source = None;
      op_synth = Some 200;
      op_passes = Some passes;
      op_parallel = true;
      op_jobs = 2;
      op_parsafe = false;
      op_json = false;
    }
  in
  let t0 = Support.Tracing.now () in
  let r = H.opt req in
  let wall = Support.Tracing.now () -. t0 in
  match r with
  | Error ds -> Alcotest.failf "opt failed: %s" (Support.Diag.render ds)
  | Ok r ->
      Alcotest.(check int) "one per pass" (List.length passes) r.P.or_passes;
      if r.P.or_seconds > wall then
        Alcotest.failf "reported %.4fs, wall %.4fs" r.P.or_seconds wall

let suite =
  [
    Alcotest.test_case "golden request json" `Quick test_golden_requests;
    Alcotest.test_case "golden frame json" `Quick test_golden_frames;
    Alcotest.test_case "golden payload json" `Quick test_golden_payloads;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "lenient request defaults" `Quick test_lenient_defaults;
    Alcotest.test_case "wire defaults match their owners" `Quick
      test_wire_defaults_owned;
    Alcotest.test_case "partition specs checked against the kernel" `Quick
      test_partition_check;
    Alcotest.test_case "request keys" `Quick test_request_key;
    Alcotest.test_case "response = head, id, encoded reply" `Quick
      test_response_head;
    Alcotest.test_case "incremental framing" `Quick test_incremental_framing;
    QCheck_alcotest.to_alcotest prop_split_feed;
    Alcotest.test_case "daemon end-to-end" `Quick test_daemon;
    Alcotest.test_case "socket removed on shutdown" `Quick test_socket_removed;
    Alcotest.test_case "sentinel id for unattributable errors" `Quick
      test_sentinel_id;
    Alcotest.test_case "non-ASCII kernel name over the socket" `Quick
      test_unicode_over_socket;
    Alcotest.test_case "latency ring bounded" `Quick test_latency_ring_bounded;
    Alcotest.test_case "daemon survives signals mid-read" `Quick
      test_signal_survival;
    Alcotest.test_case "live socket refused (HLS906)" `Quick
      test_live_socket_refused;
    Alcotest.test_case "stale socket recovered" `Quick
      test_stale_socket_recovered;
    Alcotest.test_case "short job overtakes long sweep" `Quick
      test_concurrent_groups;
    Alcotest.test_case "orphaned group cancelled" `Quick test_cancellation;
    Alcotest.test_case "memory cap sheds memo" `Quick test_memory_shed;
    Alcotest.test_case "stalled reader stalls no one" `Quick
      test_stalled_reader;
    Alcotest.test_case "riders share one queued reply" `Quick
      test_riders_share_reply;
    Alcotest.test_case "connections capped below FD_SETSIZE" `Quick
      test_connection_cap;
    Alcotest.test_case "replies over TCP are not delayed" `Quick
      test_tcp_replies_not_delayed;
    Alcotest.test_case "opt parallel seconds are wall time" `Quick
      test_opt_parallel_seconds;
  ]
