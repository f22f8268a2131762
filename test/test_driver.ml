(** Tests for the batch-compilation driver: the first-class pass
    pipeline API, the content-addressed result cache (hit / miss /
    invalidation-on-pipeline-change), the JSON trace schema, and
    parallel determinism (a 4-domain pool produces byte-identical
    results to the sequential path). *)

module D = Mhls_driver.Driver
module Tr = Mhls_driver.Trace
module Pool = Mhls_driver.Pool
module Cache = Mhls_driver.Cache
module K = Workloads.Kernels
module P = Adaptor.Pipeline
module Sp = Mhls_dse.Space

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(** A fresh, empty cache directory per test (cleaned first, so stale
    entries from an interrupted run can never fake a hit). *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mhlsc-driver-test-%d" !n)
    in
    rm_rf d;
    d

let small_jobs () =
  [
    D.job ~label:"gemm/baseline" ~kernel:"gemm" K.no_directives;
    D.job ~label:"gemm/pipelined" ~kernel:"gemm" K.pipelined;
    D.job ~label:"conv2d/pipelined" ~kernel:"conv2d" K.pipelined;
  ]

(** QoR rendering excludes wall-clock noise, so two runs of the same
    batch compare byte-for-byte. *)
let qor outcomes =
  D.render_qor
    {
      D.outcomes;
      wall_seconds = 0.0;
      jobs_used = 1;
      cache_hits = 0;
      cache_misses = 0;
    }

(* ------------------------------------------------------------------ *)
(* Pipeline API                                                       *)
(* ------------------------------------------------------------------ *)

let test_pipeline_default () =
  Alcotest.(check (list string))
    "default pass order"
    [
      "legalize-intrinsics"; "eliminate-descriptors"; "typed-pointers";
      "canonicalize-geps"; "translate-metadata"; "lower-interfaces";
    ]
    (P.enabled_names P.default)

let test_pipeline_of_names () =
  (match P.of_names [ "typed-pointers"; "legalize-intrinsics" ] with
  | Ok p ->
      Alcotest.(check (list string))
        "order preserved"
        [ "typed-pointers"; "legalize-intrinsics" ]
        (P.enabled_names p)
  | Error _ -> Alcotest.fail "known names must build");
  match P.of_names [ "no-such-pass" ] with
  | Ok _ -> Alcotest.fail "unknown name must be rejected"
  | Error d ->
      Alcotest.(check string) "HLS-style rule id" "HLS900" d.Support.Diag.rule;
      Alcotest.(check bool)
        "hint lists known passes" true
        (match d.Support.Diag.hint with
        | Some h -> String.length h > 0
        | None -> false)

let test_pipeline_set_enabled () =
  (match P.disable "canonicalize-geps" P.default with
  | Ok p ->
      Alcotest.(check bool)
        "pass dropped from enabled set" false
        (List.mem "canonicalize-geps" (P.enabled_names p));
      Alcotest.(check bool)
        "describe distinguishes the variant" false
        (P.describe p = P.describe P.default)
  | Error _ -> Alcotest.fail "known pass must toggle");
  match P.disable "no-such-pass" P.default with
  | Ok _ -> Alcotest.fail "unknown pass must be a diagnostic"
  | Error d ->
      Alcotest.(check string) "HLS900 on toggle" "HLS900" d.Support.Diag.rule

let test_session_incremental () =
  (* a live session keeps its pool and cache across submissions: the
     second submit of the same jobs is served entirely from cache *)
  let dir = fresh_dir () in
  D.with_session ~cache_dir:dir ~jobs:2 (fun s ->
      let js = small_jobs () in
      let b1 = D.submit_exn s js in
      let b2 = D.submit_exn s js in
      Alcotest.(check int) "warm submit all hits" (List.length js)
        (D.session_hits s);
      List.iter
        (fun o -> Alcotest.(check bool) "warm outcome cached" true
            o.D.o_from_cache)
        b2;
      Alcotest.(check string) "identical QoR across submissions" (qor b1)
        (qor b2));
  (* a closed session rejects further work with an HLS904 diagnostic,
     not an exception (the unified result-based error convention) *)
  let s = D.create_session ~jobs:1 () in
  D.close_session s;
  D.close_session s;
  (* idempotent *)
  (match D.submit s (small_jobs ()) with
  | Ok _ -> Alcotest.fail "submit after close must be rejected"
  | Error [ d ] ->
      Alcotest.(check string) "closed-session rule" "HLS904"
        d.Support.Diag.rule
  | Error _ -> Alcotest.fail "expected exactly one HLS904 diagnostic");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let dir = fresh_dir () in
  let js = small_jobs () in
  let b1 = D.run_batch ~cache_dir:dir js in
  Alcotest.(check int) "cold run: all misses" (List.length js) b1.D.cache_misses;
  Alcotest.(check int) "cold run: no hits" 0 b1.D.cache_hits;
  List.iter
    (fun o -> Alcotest.(check bool) "cold run computed" false o.D.o_from_cache)
    b1.D.outcomes;
  let b2 = D.run_batch ~cache_dir:dir js in
  Alcotest.(check int) "warm run: all hits" (List.length js) b2.D.cache_hits;
  Alcotest.(check int) "warm run: no misses" 0 b2.D.cache_misses;
  List.iter
    (fun o -> Alcotest.(check bool) "warm run cached" true o.D.o_from_cache)
    b2.D.outcomes;
  Alcotest.(check string)
    "cached QoR identical to computed QoR" (qor b1.D.outcomes)
    (qor b2.D.outcomes);
  List.iter
    (fun (r : Tr.record) ->
      Alcotest.(check bool) "warm trace marked cached" true r.Tr.tr_cached)
    (D.trace_records b2);
  rm_rf dir

let test_cache_invalidation_on_pipeline_change () =
  let dir = fresh_dir () in
  let js = small_jobs () in
  let b1 = D.run_batch ~cache_dir:dir js in
  Alcotest.(check int) "cold misses" (List.length js) b1.D.cache_misses;
  (* same jobs, different pipeline: the pipeline description is part of
     the content address, so nothing may be served from the old run *)
  let p =
    match P.disable "canonicalize-geps" P.default with
    | Ok p -> p
    | Error _ -> Alcotest.fail "known pass"
  in
  let b2 = D.run_batch ~pipeline:p ~cache_dir:dir js in
  Alcotest.(check int)
    "pipeline change misses everything" (List.length js) b2.D.cache_misses;
  Alcotest.(check int) "pipeline change hits nothing" 0 b2.D.cache_hits;
  (* both variants now live side by side *)
  let c = Cache.create ~dir in
  Alcotest.(check int)
    "both variants stored"
    (2 * List.length js)
    (Cache.entry_count c);
  rm_rf dir

let test_cache_key_separator () =
  (* the key must be injective w.r.t. part boundaries *)
  Alcotest.(check bool)
    "no concatenation collision" false
    (Cache.key [ "ab"; "c" ] = Cache.key [ "a"; "bc" ]);
  Alcotest.(check bool)
    "arity matters" false
    (Cache.key [ "a"; "" ] = Cache.key [ "a" ])

(* Content addresses of one static and one dynamic gemm job.  Entries
   already in a .mhlsc-cache directory stay addressable only while
   these hold, so update them only with a tool-version bump. *)
let test_cache_key_pinned () =
  let key sched =
    D.cache_key ~pipeline:P.default (D.job ~sched ~kernel:"gemm" K.pipelined)
  in
  Alcotest.(check (option string))
    "static gemm key" (Some "1f0e2da184392205ade048162f5d1994")
    (key Hls_backend.Backend.Static);
  Alcotest.(check (option string))
    "dynamic gemm key" (Some "6576aaecfa1f10657f39c29a436a9177")
    (key Hls_backend.Backend.Dynamic)

(* ------------------------------------------------------------------ *)
(* Trace schema                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_schema_golden () =
  let b = D.run_batch ~events:true (small_jobs ()) in
  let records = D.trace_records b in
  Alcotest.(check bool) "trace non-empty" true (records <> []);
  let stages =
    List.sort_uniq compare
      (List.map (fun r -> r.Tr.tr_event.Support.Tracing.ev_stage) records)
  in
  Alcotest.(check bool)
    "adaptor stage traced" true
    (List.mem "adaptor" stages);
  Alcotest.(check bool)
    "llvm-opt stage traced" true
    (List.mem "llvm-opt" stages);
  let json = Tr.to_json ~tool:D.tool_version records in
  (match Tr.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "golden trace rejected: %s" e);
  (* every record object carries the full schema in order *)
  Alcotest.(check bool)
    "key order is canonical" true
    (let r = List.hd records in
     let fields = String.concat "" (List.map fst (Tr.record_fields r)) in
     fields
     = "jobkernelflowstagepasssecondsinstrs_beforeinstrs_after"
       ^ "minor_wordsmajor_wordscached")

let test_trace_schema_rejects_malformed () =
  (match Tr.validate "{\"records\": []}" with
  | Ok () -> Alcotest.fail "missing version must be rejected"
  | Error _ -> ());
  (match Tr.validate "{\"version\": 1}" with
  | Ok () -> Alcotest.fail "missing records must be rejected"
  | Error _ -> ());
  let missing_key =
    "{\"version\": 1, \"tool\": \"t\", \"records\": [\n\
    \  {\"job\": \"j\", \"kernel\": \"k\", \"flow\": \"direct-ir\",\n\
    \   \"stage\": \"adaptor\", \"pass\": \"p\", \"seconds\": 0.1,\n\
    \   \"instrs_before\": 1, \"instrs_after\": 1,\n\
    \   \"minor_words\": 0, \"major_words\": 0}\n\
     ]}"
  in
  (match Tr.validate missing_key with
  | Ok () -> Alcotest.fail "record lacking 'cached' must be rejected"
  | Error e ->
      Alcotest.(check bool)
        "error names the missing key" true
        (let contains ~needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i =
             i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
           in
           go 0
         in
         contains ~needle:"cached" e));
  (* the validator reads JSON, not spellings: damaged documents are
     rejected and the same document without blanks is accepted *)
  let record ?(cached = "false") () =
    Printf.sprintf
      {|{"job": "j", "kernel": "k", "flow": "direct-ir", "stage": "adaptor", "pass": "p", "seconds": 0.1, "instrs_before": 1, "instrs_after": 1, "minor_words": 0, "major_words": 0, "cached": %s}|}
      cached
  in
  let head ?(version = "1") () =
    Printf.sprintf "{\"version\": %s, \"tool\": \"t\", \"records\": [\n"
      version
  in
  let doc ?version records =
    head ?version () ^ "  " ^ String.concat ",\n  " records ^ "\n]}\n"
  in
  let reject name s =
    if Result.is_ok (Tr.validate s) then Alcotest.failf "%s accepted" name
  in
  let accept name s =
    match Tr.validate s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" name e
  in
  accept "well-formed trace" (doc [ record (); record () ]);
  reject "truncated after the first record" (head () ^ "  " ^ record () ^ ",\n");
  reject "trailing garbage" (doc [ record () ] ^ "]]");
  reject "version 12" (doc ~version:"12" [ record () ]);
  reject "key with no value" (doc [ record ~cached:"" () ]);
  (* the sample has no blanks inside its strings *)
  let squeeze s =
    String.concat ""
      (List.concat_map (String.split_on_char ' ') (String.split_on_char '\n' s))
  in
  accept "trace without blanks" (squeeze (doc [ record (); record () ]))

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_preserves_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "map order preserved across 4 domains"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs)

let test_batch_determinism () =
  (* run_batch clamps its worker count to the hardware, so drive the
     pool directly: 4 real domains vs the inline sequential path must
     produce byte-identical QoR, in the same order *)
  let js = D.all_kernel_jobs () in
  let seq = List.map (D.run_job ~pipeline:P.default ~cache:None) js in
  let par = Pool.map ~jobs:4 (D.run_job ~pipeline:P.default ~cache:None) js in
  Alcotest.(check string)
    "4-domain batch byte-identical to sequential" (qor seq) (qor par)

let test_batch_report_stats () =
  let b = D.run_batch (small_jobs ()) in
  Alcotest.(check bool)
    "no cache dir reported as disabled" true
    (let s = D.render_stats b in
     let nl = String.length "cache: disabled" and hl = String.length s in
     let rec go i =
       i + nl <= hl && (String.sub s i nl = "cache: disabled" || go (i + 1))
     in
     go 0);
  Alcotest.(check int) "all outcomes present" (List.length (small_jobs ()))
    (List.length b.D.outcomes)

(* ------------------------------------------------------------------ *)
(* Manifests                                                          *)
(* ------------------------------------------------------------------ *)

(* The README's example manifest. *)
let readme_manifest =
  {|# kernel [label=..] [flow=direct|cpp] [sched=static|dynamic] [ii=N]
#        [strategy=inner|middle] [unroll=N]
#        [partition=ARR:cyclic:F:DIM]... [clock=NS]
gemm   label=fast ii=1 strategy=middle unroll=4 partition=A:cyclic:4:2
conv2d flow=cpp ii=2
|}

let job_testable =
  Alcotest.testable
    (fun ppf (j : D.job) ->
      Format.fprintf ppf "%s %s %s %s %s %g" j.D.label j.D.kernel
        (Flow.flow_name j.D.flow)
        (Hls_backend.Backend.sched_name j.D.sched)
        (D.directives_describe j.D.directives)
        j.D.clock_ns)
    ( = )

let test_manifest_parses () =
  let text = readme_manifest ^ "mvt sched=dynamic clock=5 ii=0\ngemm\n" in
  let js =
    match D.parse_manifest text with
    | Ok js -> js
    | Error d -> Alcotest.failf "rejected: %s" (Support.Diag.to_string d)
  in
  let expect label kernel flow sched directives clock_ns =
    { D.label; kernel; flow; sched; directives; clock_ns }
  in
  Alcotest.(check (list job_testable))
    "jobs"
    [
      expect "fast" "gemm" Flow.Direct_ir Hls_backend.Backend.Static
        {
          K.pipeline_ii = Some 1;
          unroll = Some 4;
          strategy = K.Middle;
          partitions = [ ("A", "cyclic", 4, 2) ];
        }
        10.0;
      expect "conv2d:5" "conv2d" Flow.Hls_cpp Hls_backend.Backend.Static
        { K.no_directives with K.pipeline_ii = Some 2 }
        10.0;
      expect "mvt:6" "mvt" Flow.Direct_ir Hls_backend.Backend.Dynamic
        K.no_directives 5.0;
      expect "gemm:7" "gemm" Flow.Direct_ir Hls_backend.Backend.Static
        K.no_directives 10.0;
    ]
    js;
  (* a bare line starts unpipelined, unlike a compile request or
     `mhlsc synth gemm`, whose directives default to II 1 *)
  let bare = List.nth js 3 in
  let latency (o : D.outcome) =
    match o.D.o_qor with
    | Ok r -> r.Hls_backend.Estimate.latency
    | Error _ -> Alcotest.fail "gemm failed"
  in
  Alcotest.(check (list int))
    "bare gemm line vs II 1" [ 42036; 18740 ]
    (List.map latency
       (D.run_batch [ bare; { bare with D.directives = K.pipelined } ])
         .D.outcomes)

(* Every rejected line is one HLS901 diagnostic at manifest:N that
   names the offending token. *)
let test_manifest_errors () =
  List.iter
    (fun (text, line, token) ->
      match D.parse_manifest text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error d ->
          Alcotest.(check string) (text ^ ": rule") "HLS901" d.Support.Diag.rule;
          Alcotest.(check (option string))
            (text ^ ": line")
            (Some (Printf.sprintf "manifest:%d" line))
            d.Support.Diag.func;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names %S" text d.Support.Diag.message token)
            true
            (Str_find.contains d.Support.Diag.message token))
    [
      ("nosuch ii=1\n", 1, "nosuch");
      ("gemm\n# c\ngemm fast\n", 3, "fast");
      ("\ngemm bogus=1\n", 2, "bogus");
      ("gemm ii=two\n", 1, "two");
      ("gemm unroll=4x\n", 1, "4x");
      ("gemm clock=fast\n", 1, "fast");
      ("gemm flow=vhdl\n", 1, "vhdl");
      ("gemm sched=vliw\n", 1, "vliw");
      ("gemm strategy=outer\n", 1, "outer");
      ("gemm partition=A:cyclic:4\n", 1, "A:cyclic:4");
      ("gemm partition=A:cyclic:four:2\n", 1, "A:cyclic:four:2");
    ]

(* ------------------------------------------------------------------ *)
(* Events only for a reader                                           *)
(* ------------------------------------------------------------------ *)

let gemm_jobs () =
  List.map
    (fun flow -> D.job ~flow ~kernel:"gemm" K.pipelined)
    [ Flow.Direct_ir; Flow.Hls_cpp ]

let test_events_only_when_asked () =
  List.iter
    (fun j ->
      let quiet = D.run_job ~pipeline:P.default ~cache:None j in
      let traced = D.run_job ~events:true ~pipeline:P.default ~cache:None j in
      Alcotest.(check int) (j.D.label ^ ": no events unless asked") 0
        (List.length quiet.D.o_trace);
      Alcotest.(check bool) (j.D.label ^ ": events when asked") true
        (traced.D.o_trace <> []);
      Alcotest.(check string) (j.D.label ^ ": same QoR either way")
        (qor [ traced ]) (qor [ quiet ]);
      Alcotest.(check bool) (j.D.label ^ ": same report either way") true
        (quiet.D.o_qor = traced.D.o_qor))
    (gemm_jobs ())

(* The stage and pass events of a gemm job with their IR sizes: asking
   for events must not change them, and a direct-IR job whose kernel's
   prefix is memoized replays the prefix's events (lowering and
   cleanup), then writes the directives.  The analysis queries in
   between are left out, since which of them hit depends on how the
   stages share the job's manager. *)
let gemm_stage_events =
  [
    ( "gemm/direct-ir",
      [ "lower lower-modern 0 66"; "llvm-opt inline 66 66";
        "llvm-opt mem2reg 66 66"; "llvm-opt constfold 66 63";
        "llvm-opt cse 63 63"; "llvm-opt licm 63 63"; "llvm-opt dce 63 63";
        "llvm-opt simplifycfg 63 60"; "llvm-opt constfold 60 60";
        "llvm-opt dce 60 60"; "lower apply-directives 60 60";
        "adaptor legalize-intrinsics 60 58";
        "adaptor eliminate-descriptors 58 28"; "adaptor typed-pointers 28 28";
        "adaptor canonicalize-geps 28 28"; "adaptor translate-metadata 28 32";
        "adaptor lower-interfaces 32 32"; "hls estimate-static 32 32" ] );
    ( "gemm/hls-cpp",
      [ "hls-cpp emit-and-parse 0 81"; "llvm-opt inline 81 81";
        "llvm-opt mem2reg 81 44"; "llvm-opt constfold 44 44";
        "llvm-opt cse 44 43"; "llvm-opt licm 43 43"; "llvm-opt dce 43 43";
        "llvm-opt simplifycfg 43 40"; "llvm-opt constfold 40 40";
        "llvm-opt dce 40 40"; "hls estimate-static 40 40" ] );
  ]

let stage_lines (o : D.outcome) =
  List.filter_map
    (fun (e : Support.Tracing.event) ->
      if e.Support.Tracing.ev_stage = "analysis" then None
      else
        Some
          (Printf.sprintf "%s %s %d %d" e.Support.Tracing.ev_stage
             e.Support.Tracing.ev_pass e.Support.Tracing.ev_instrs_before
             e.Support.Tracing.ev_instrs_after))
    o.D.o_trace

let test_events_keep_stages () =
  List.iter
    (fun j ->
      (* an untraced run first leaves the kernel's prefix memoized
         without its events: the first traced run computes it again,
         the second replays it *)
      ignore (D.run_job ~pipeline:P.default ~cache:None j);
      List.iter
        (fun run ->
          let o = D.run_job ~events:true ~pipeline:P.default ~cache:None j in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, run %d: stages, passes and sizes" j.D.label run)
            (List.assoc j.D.label gemm_stage_events)
            (stage_lines o);
          Alcotest.(check bool) (j.D.label ^ ": analysis queries traced") true
            (List.exists
               (fun (e : Support.Tracing.event) ->
                 e.Support.Tracing.ev_stage = "analysis")
               o.D.o_trace))
        [ 1; 2 ])
    (gemm_jobs ())

let test_cache_stores_and_replays_events () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir in
  List.iter
    (fun j ->
      (* the cache needs the events for later hits, asked for or not *)
      let miss = D.run_job ~events:false ~pipeline:P.default ~cache:(Some c) j in
      let hit = D.run_job ~events:false ~pipeline:P.default ~cache:(Some c) j in
      Alcotest.(check bool) (j.D.label ^ ": miss computed") false
        miss.D.o_from_cache;
      Alcotest.(check bool) (j.D.label ^ ": miss stored events") true
        (miss.D.o_trace <> []);
      Alcotest.(check bool) (j.D.label ^ ": hit served") true
        hit.D.o_from_cache;
      Alcotest.(check bool) (j.D.label ^ ": hit replays the events") true
        (hit.D.o_trace = miss.D.o_trace);
      (* a miss in a second cache whose kernel prefix is memoized *)
      let dir2 = fresh_dir () in
      let memo =
        D.run_job ~events:false ~pipeline:P.default
          ~cache:(Some (Cache.create ~dir:dir2)) j
      in
      Alcotest.(check bool) (j.D.label ^ ": second cache missed") false
        memo.D.o_from_cache;
      Alcotest.(check (list string))
        (j.D.label ^ ": stages, passes and sizes of a memo hit")
        (List.assoc j.D.label gemm_stage_events)
        (stage_lines memo);
      Alcotest.(check (list string))
        (j.D.label ^ ": the stored run's stages, passes and sizes")
        (stage_lines miss) (stage_lines memo);
      rm_rf dir2)
    (gemm_jobs ());
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* The direct-IR prefix memo                                          *)
(* ------------------------------------------------------------------ *)

(* Every [n]-th design point of a kernel's space, first and last
   included. *)
let sample_points n (k : K.kernel) =
  let sp = Sp.of_kernel k in
  let all = Array.of_list (Sp.enumerate sp) in
  let len = Array.length all in
  List.sort_uniq compare (List.init n (fun i -> i * (len - 1) / max 1 (n - 1)))
  |> List.map (fun i -> (Sp.describe all.(i), Sp.to_directives sp all.(i)))

(* A direct-IR job whose kernel's prefix is memoized (after a
   warm-up job) gives the report and the rendered adaptor report of a
   full compile, under both disciplines. *)
let test_memo_hits_match_full_compiles () =
  List.iter
    (fun (k : K.kernel) ->
      ignore
        (D.run_job ~pipeline:P.default ~cache:None
           (D.job ~kernel:k.K.kname K.no_directives));
      List.iter
        (fun (point, d) ->
          List.iter
            (fun sched ->
              let what =
                Printf.sprintf "%s/%s/%s" k.K.kname point
                  (Hls_backend.Backend.sched_name sched)
              in
              let o =
                D.run_job ~pipeline:P.default ~cache:None
                  (D.job ~sched ~kernel:k.K.kname d)
              in
              match Flow.run ~directives:d ~pipeline:P.default ~sched k Flow.Direct_ir with
              | Error _ -> Alcotest.failf "%s: Flow.run failed" what
              | Ok r ->
                  Alcotest.(check bool) (what ^ ": report") true
                    (o.D.o_qor = Ok r.Flow.hls);
                  Alcotest.(check (option string))
                    (what ^ ": adaptor report")
                    (Option.map Adaptor.report_to_string r.Flow.adaptor_report)
                    o.D.o_adaptor)
            Hls_backend.Backend.all_scheds)
        (sample_points 5 k))
    (K.all ())

(* Jobs of two kernels (one of them inlines a callee's loops) started
   on a cold memo: four workers race to fill it and must print the
   bytes one worker prints.  Then a job that asks for events finds
   gemm's prefix memoized without them, computes it again and must
   list a full compile's events.  Each batch runs in a fresh process, a
   helper executable, since this one's memo is warm and a process that
   has started domains cannot fork. *)
let test_memo_cold_parallel_batch () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "memo_batch.exe" in
  let run jobs =
    let ic = Unix.open_process_args_in exe [| exe; string_of_int jobs |] in
    let out = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "memo_batch %d failed" jobs);
    out
  in
  let one = run 1 in
  Alcotest.(check bool) "the batch compiled" true
    (Str_find.contains one "mmcall" && not (Str_find.contains one "FAIL"));
  Alcotest.(check string) "--jobs 4 prints the --jobs 1 bytes" one (run 4);
  let rec after = function
    | [] -> None
    | "events:" :: rest -> Some (List.filter (( <> ) "") rest)
    | _ :: rest -> after rest
  in
  let events = after (String.split_on_char '\n' one) in
  Alcotest.(check (option (list string)))
    "events of a traced job after an untraced one"
    (Some (List.assoc "gemm/direct-ir" gemm_stage_events))
    events

(* ------------------------------------------------------------------ *)
(* Cache robustness                                                   *)
(* ------------------------------------------------------------------ *)

(* An entry that does not decode is a miss, not a hit, and the job's
   fresh result replaces it. *)
let test_cache_undecodable_is_miss () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir in
  let j = D.job ~kernel:"gemm" K.pipelined in
  let key = Option.get (D.cache_key ~pipeline:P.default j) in
  Cache.store c key "not a payload";
  let o = D.run_job ~pipeline:P.default ~cache:(Some c) j in
  Alcotest.(check bool) "recomputed" false o.D.o_from_cache;
  Alcotest.(check (pair int int)) "counted as a miss" (0, 1)
    (Cache.hits c, Cache.misses c);
  let o = D.run_job ~pipeline:P.default ~cache:(Some c) j in
  Alcotest.(check bool) "replaced by the fresh result" true o.D.o_from_cache;
  Alcotest.(check (pair int int)) "then a hit" (1, 1)
    (Cache.hits c, Cache.misses c);
  rm_rf dir

(* A stored entry with one byte flipped, or cut short, is a miss that
   recomputes the original report, never a crash or a different
   report served as a hit. *)
let test_cache_damaged_entry_is_miss () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir in
  let j = D.job ~kernel:"gemm" K.pipelined in
  let key = Option.get (D.cache_key ~pipeline:P.default j) in
  let expected = qor [ D.run_job ~pipeline:P.default ~cache:(Some c) j ] in
  let entry =
    In_channel.with_open_bin
      (Filename.concat dir (key ^ ".cache"))
      In_channel.input_all
  in
  let n = String.length entry in
  let flipped at =
    String.mapi (fun i ch -> if i = at then Char.chr (Char.code ch lxor 0x5a) else ch) entry
  in
  let damaged =
    List.init ((n + 6) / 7) (fun i -> flipped (7 * i))
    @ List.map (String.sub entry 0) [ 0; 1; 15; 16; 17; n / 2; n - 1 ]
  in
  List.iteri
    (fun i bytes ->
      Cache.store c key bytes;
      let o = D.run_job ~pipeline:P.default ~cache:(Some c) j in
      Alcotest.(check bool) (Printf.sprintf "damage %d: a miss" i) false
        o.D.o_from_cache;
      Alcotest.(check string) (Printf.sprintf "damage %d: same report" i)
        expected (qor [ o ]))
    damaged;
  Alcotest.(check int) "every damaged entry missed" (List.length damaged + 1)
    (Cache.misses c);
  rm_rf dir

(* Two processes store different multi-MiB payloads under one key, over
   and over, while every process (this one too) looks the key up: a
   lookup must find nothing or one payload intact.  The writers are a
   helper executable: a process that has started domains cannot fork. *)
let test_cache_two_processes () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir in
  let key = Cache.key [ "two-processes" ] and size = 3 lsl 20 in
  let intact = function
    | None -> true
    | Some s -> String.length s = size && String.for_all (Char.equal s.[0]) s
  in
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "cache_writer.exe"
  in
  let spawn byte =
    Unix.create_process exe
      [| exe; dir; key; byte; string_of_int size; "24" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let running = ref [ spawn "a"; spawn "b" ] in
  let torn = ref 0 and failed = ref 0 in
  while !running <> [] do
    if not (intact (Cache.find c key)) then incr torn;
    running :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _, Unix.WEXITED 0 -> false
          | _ ->
              incr failed;
              false)
        !running
  done;
  Alcotest.(check int) "writers saw only intact entries" 0 !failed;
  Alcotest.(check int) "reader saw only intact entries" 0 !torn;
  Alcotest.(check bool) "final entry intact" true
    (match Cache.find c key with Some _ as e -> intact e | None -> false);
  rm_rf dir

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "pipeline default" `Quick test_pipeline_default;
    Alcotest.test_case "pipeline of_names" `Quick test_pipeline_of_names;
    Alcotest.test_case "pipeline set_enabled" `Quick test_pipeline_set_enabled;
    Alcotest.test_case "session incremental submit" `Quick
      test_session_incremental;
    Alcotest.test_case "cache hit miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache invalidation on pipeline change" `Quick
      test_cache_invalidation_on_pipeline_change;
    Alcotest.test_case "cache key separator" `Quick test_cache_key_separator;
    Alcotest.test_case "cache key pinned" `Quick test_cache_key_pinned;
    Alcotest.test_case "trace schema golden" `Quick test_trace_schema_golden;
    Alcotest.test_case "trace schema rejects malformed" `Quick
      test_trace_schema_rejects_malformed;
    Alcotest.test_case "pool preserves order" `Quick test_pool_preserves_order;
    Alcotest.test_case "batch determinism" `Quick test_batch_determinism;
    Alcotest.test_case "batch report stats" `Quick test_batch_report_stats;
    Alcotest.test_case "manifest parses" `Quick test_manifest_parses;
    Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
    Alcotest.test_case "events only when asked" `Quick
      test_events_only_when_asked;
    Alcotest.test_case "events keep stages, passes and sizes" `Quick
      test_events_keep_stages;
    Alcotest.test_case "cache stores and replays events" `Quick
      test_cache_stores_and_replays_events;
    Alcotest.test_case "memo hits match full compiles" `Quick
      test_memo_hits_match_full_compiles;
    Alcotest.test_case "memo filled by a parallel batch" `Quick
      test_memo_cold_parallel_batch;
    Alcotest.test_case "undecodable cache entry is a miss" `Quick
      test_cache_undecodable_is_miss;
    Alcotest.test_case "damaged cache entry is a miss" `Quick
      test_cache_damaged_entry_is_miss;
    Alcotest.test_case "cache shared by two processes" `Quick
      test_cache_two_processes;
  ]
