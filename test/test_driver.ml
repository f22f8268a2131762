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
      Alcotest.(check int)
        "session counts both submissions"
        (2 * List.length js)
        (D.session_submitted s);
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
    "static gemm key" (Some "918c707128c01235df59a129c968e517")
    (key Hls_backend.Backend.Static);
  Alcotest.(check (option string))
    "dynamic gemm key" (Some "945756cc9455b00252456fb103089659")
    (key Hls_backend.Backend.Dynamic)

(* ------------------------------------------------------------------ *)
(* Trace schema                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_schema_golden () =
  let b = D.run_batch (small_jobs ()) in
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
  ]
