(** Tests for the Pareto-archive design-space exploration engine:
    dominance/frontier laws (QCheck), metadata-derived search spaces,
    budget filtering, early stop, worker-count determinism, and the
    weak-domination guarantee over the legacy fixed grid. *)

module K = Workloads.Kernels
module E = Hls_backend.Estimate
module P = Mhls_dse.Pareto
module Sp = Mhls_dse.Space
module S = Mhls_dse.Search
module J = Mhls_dse.Dse_json
module D = Mhls_driver.Driver

(* one result cache shared by the whole suite: repeated searches of the
   same kernel are served from disk, which also exercises cross-run
   cache reuse *)
let cache_dir =
  let d = Filename.temp_file "mhlsc-test-dse" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

(* ------------------------------------------------------------------ *)
(* Pareto laws (QCheck)                                               *)
(* ------------------------------------------------------------------ *)

let arb_obj =
  QCheck.make
    ~print:(fun a ->
      "[|"
      ^ String.concat ";" (Array.to_list (Array.map string_of_int a))
      ^ "|]")
    QCheck.Gen.(array_size (return 4) (int_bound 10))

let prop_dominates_irreflexive =
  QCheck.Test.make ~name:"dominates is irreflexive" ~count:200 arb_obj
    (fun a -> not (P.dominates a a))

let prop_dominates_antisymmetric =
  QCheck.Test.make ~name:"dominates is antisymmetric" ~count:500
    (QCheck.pair arb_obj arb_obj) (fun (a, b) ->
      not (P.dominates a b && P.dominates b a))

let prop_frontier_is_antichain =
  QCheck.Test.make ~name:"frontier is an antichain covering all inserts"
    ~count:200
    (QCheck.list_of_size QCheck.Gen.(int_range 0 30) arb_obj)
    (fun objs ->
      let entries =
        List.mapi
          (fun i o -> P.entry ~key:(Printf.sprintf "p%03d" i) ~obj:o ())
          objs
      in
      let t, _ = P.insert_all P.empty entries in
      let f = P.frontier t in
      P.is_antichain f
      && List.for_all
           (fun o ->
             List.exists
               (fun (e : unit P.entry) ->
                 e.P.e_obj = o || P.dominates e.P.e_obj o)
               f)
           objs)

let test_dominates_dimension_mismatch () =
  Alcotest.check_raises "dimension mismatch raises"
    (Invalid_argument "Pareto.dominates: dimension mismatch") (fun () ->
      ignore (P.dominates [| 1 |] [| 1; 2 |]))

let test_insert_dedups_keys_and_ties () =
  let e1 = P.entry ~key:"a" ~obj:[| 1; 1 |] () in
  let t, ch1 = P.insert P.empty e1 in
  Alcotest.(check bool) "first insert changes" true ch1;
  let _, ch2 = P.insert t (P.entry ~key:"a" ~obj:[| 0; 0 |] ()) in
  Alcotest.(check bool) "duplicate key is a no-op" false ch2;
  let t3, ch3 = P.insert t (P.entry ~key:"b" ~obj:[| 1; 1 |] ()) in
  Alcotest.(check bool) "objective tie is a no-op" false ch3;
  Alcotest.(check int) "tie kept one representative" 1 (P.size t3)

(* ------------------------------------------------------------------ *)
(* Space derivation                                                   *)
(* ------------------------------------------------------------------ *)

let test_space_gemm_axes () =
  let sp = Sp.of_kernel (K.gemm ()) in
  let axis name =
    match
      List.find_opt (fun a -> a.Sp.pa_array = name) sp.Sp.sp_partitions
    with
    | Some a -> a
    | None -> Alcotest.fail ("no partition axis for " ^ name)
  in
  (* gemm's innermost loop indexes A's columns and B's rows *)
  Alcotest.(check int) "A partitioned on dim 2" 2 (axis "A").Sp.pa_dim;
  Alcotest.(check int) "B partitioned on dim 1" 1 (axis "B").Sp.pa_dim;
  Alcotest.(check bool) "factor ladders start at 1 (off)" true
    (List.for_all
       (fun a -> List.hd a.Sp.pa_factors = 1)
       sp.Sp.sp_partitions);
  Alcotest.(check int) "gemm space has 384 canonical points" 384
    (Sp.size sp)

let test_space_at_least_10x_legacy_grid () =
  List.iter
    (fun k ->
      let sp = Sp.of_kernel k in
      Alcotest.(check bool)
        (Printf.sprintf "%s space >= 80 (10x the old 8-point grid), got %d"
           k.K.kname (Sp.size sp))
        true
        (Sp.size sp >= 80))
    (K.all ())

let test_describe_injective_on_space () =
  let sp = Sp.of_kernel (K.gemm ()) in
  let labels = List.map Sp.describe (Sp.enumerate sp) in
  Alcotest.(check int) "describe is injective over the space"
    (List.length labels)
    (List.length (List.sort_uniq compare labels))

let test_seeds_are_in_space () =
  List.iter
    (fun k ->
      let sp = Sp.of_kernel k in
      let space = List.map Sp.describe (Sp.enumerate sp) in
      let seeds = Sp.seeds sp in
      Alcotest.(check bool)
        (k.K.kname ^ " has seeds") true (seeds <> []);
      Alcotest.(check bool)
        (k.K.kname ^ " seeds bounded by the legacy 8-grid") true
        (List.length seeds <= 8);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %s is in the space" k.K.kname
               (Sp.describe c))
            true
            (List.mem (Sp.describe c) space))
        seeds)
    (K.all ())

let test_neighbors_canonical () =
  let sp = Sp.of_kernel (K.gemm ()) in
  let space = List.map Sp.describe (Sp.enumerate sp) in
  List.iter
    (fun c ->
      let ns = Sp.neighbors sp c in
      Alcotest.(check bool) "self excluded" false
        (List.mem (Sp.describe c) (List.map Sp.describe ns));
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Sp.describe n ^ " neighbor is canonical and in space") true
            (Sp.describe (Sp.canonical n) = Sp.describe n
            && List.mem (Sp.describe n) space))
        ns)
    (Sp.seeds sp)

(* ------------------------------------------------------------------ *)
(* Search                                                             *)
(* ------------------------------------------------------------------ *)

let objectives (p : S.point) = S.objectives_of_report p.S.pt_report

(* a <= b on every axis: weak (Pareto) domination *)
let weakly_le a b =
  let ok = ref true in
  Array.iteri (fun i v -> if v > b.(i) then ok := false) a;
  !ok

let test_search_gemm_frontier () =
  let o = S.search ~cache_dir ~jobs:2 (K.gemm ()) in
  Alcotest.(check bool) "frontier non-empty" true (o.S.o_frontier <> []);
  Alcotest.(check bool) "respects eval cap" true
    (o.S.o_evaluated <= S.default_params.S.max_evals);
  Alcotest.(check bool) "fewer full evals than exhaustive" true
    (o.S.o_full_evals < Sp.size o.S.o_space);
  (* the frontier is an antichain, sorted by label *)
  let entries =
    List.map
      (fun p -> P.entry ~key:p.S.pt_label ~obj:(objectives p) ())
      o.S.o_frontier
  in
  Alcotest.(check bool) "frontier is an antichain" true
    (P.is_antichain entries);
  Alcotest.(check bool) "frontier sorted by label" true
    (let ls = List.map (fun p -> p.S.pt_label) o.S.o_frontier in
     ls = List.sort compare ls);
  Alcotest.(check int) "nothing infeasible without a budget" 0
    (List.length o.S.o_infeasible)

let test_search_improves_over_baseline () =
  let o = S.search ~cache_dir ~jobs:2 (K.gemm ()) in
  let sp = o.S.o_space in
  let baseline =
    let b =
      D.run_batch ~cache_dir
        [
          D.job ~clock_ns:10.0 ~kernel:"gemm"
            (Sp.to_directives sp
               (Sp.canonical
                  {
                    Sp.c_strategy = K.Inner;
                    c_sched = Hls_backend.Backend.Static;
                    c_ii = 0;
                    c_unroll = 1;
                    c_parts = [];
                  }));
        ]
    in
    match (List.hd b.D.outcomes).D.o_qor with
    | Ok r -> r
    | Error _ -> Alcotest.fail "baseline infeasible"
  in
  match S.best o with
  | Some best ->
      Alcotest.(check bool) "best is at least 10x the baseline" true
        (baseline.E.latency / best.S.pt_report.E.latency >= 10)
  | None -> Alcotest.fail "no best point"

let test_budget_constrains () =
  let unconstrained = S.search ~cache_dir ~jobs:2 (K.gemm ()) in
  let params =
    {
      S.default_params with
      S.budget = { S.no_budget with S.b_max_dsp = Some 10 };
    }
  in
  let tight = S.search ~params ~cache_dir ~jobs:2 (K.gemm ()) in
  Alcotest.(check bool) "budget frontier non-empty" true
    (tight.S.o_frontier <> []);
  Alcotest.(check bool) "some points dropped by the budget" true
    (tight.S.o_over_budget > 0);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.S.pt_label ^ " within budget") true
        (p.S.pt_report.E.resources.E.dsp <= 10))
    tight.S.o_frontier;
  match (S.best unconstrained, S.best tight) with
  | Some u, Some t ->
      Alcotest.(check bool) "constrained best is slower-or-equal" true
        (t.S.pt_report.E.latency >= u.S.pt_report.E.latency)
  | _ -> Alcotest.fail "both searches should have a best point"

let test_early_stop_knobs () =
  (* the eval cap binds exactly *)
  let capped =
    S.search
      ~params:{ S.default_params with S.max_evals = 8 }
      ~cache_dir (K.gemm ())
  in
  Alcotest.(check bool) "eval cap respected" true (capped.S.o_evaluated <= 8);
  (* the round cap binds exactly *)
  let one_round =
    S.search
      ~params:{ S.default_params with S.max_rounds = 1 }
      ~cache_dir (K.gemm ())
  in
  Alcotest.(check bool) "round cap respected" true
    (List.length one_round.S.o_rounds <= 1);
  (* a lower stability threshold can only stop earlier: the candidate
     sequence is identical until the first stop *)
  let evals stable_rounds =
    (S.search
       ~params:{ S.default_params with S.stable_rounds; S.max_evals = 200 }
       ~cache_dir (K.fir ()))
      .S.o_evaluated
  in
  Alcotest.(check bool) "stable_rounds=1 stops no later than =3" true
    (evals 1 <= evals 3)

let test_jobs_determinism () =
  (* no cache: both runs compile everything, so the exports must match
     byte for byte *)
  let params = { S.default_params with S.max_evals = 24 } in
  let a = S.search ~params ~jobs:1 (K.gemm ()) in
  let b = S.search ~params ~jobs:4 (K.gemm ()) in
  Alcotest.(check string) "frontier tables identical"
    (S.render_frontier a) (S.render_frontier b);
  Alcotest.(check string) "dse.json identical"
    (J.to_json ~tool:D.tool_version a)
    (J.to_json ~tool:D.tool_version b)

let test_weakly_dominates_legacy_grid () =
  (* on every kernel: each legacy fixed-grid point is weakly dominated
     by some point of the new frontier, with fewer full evaluations
     than exhaustive enumeration *)
  List.iter
    (fun k ->
      let o = S.search ~cache_dir ~jobs:4 k in
      let sp = o.S.o_space in
      Alcotest.(check bool)
        (k.K.kname ^ ": fewer full evals than exhaustive") true
        (o.S.o_full_evals < Sp.size sp);
      let legacy =
        let js =
          List.map
            (fun c ->
              D.job ~label:(Sp.describe c) ~clock_ns:10.0 ~kernel:k.K.kname
                (Sp.to_directives sp c))
            (Sp.seeds sp)
        in
        let b = D.run_batch ~cache_dir ~jobs:2 js in
        List.filter_map
          (fun (out : D.outcome) ->
            match out.D.o_qor with
            | Ok r -> Some (out.D.o_job.D.label, S.objectives_of_report r)
            | Error _ -> None)
          b.D.outcomes
      in
      Alcotest.(check bool) (k.K.kname ^ ": legacy grid feasible") true
        (legacy <> []);
      List.iter
        (fun (label, old_obj) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: frontier weakly dominates legacy %s"
               k.K.kname label)
            true
            (List.exists
               (fun p -> weakly_le (objectives p) old_obj)
               o.S.o_frontier))
        legacy)
    (K.all ())

let test_session_cache_reuse () =
  let dir = Filename.temp_file "mhlsc-test-dse-reuse" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let params = { S.default_params with S.max_evals = 16 } in
  let first = S.search ~params ~cache_dir:dir (K.fir ()) in
  let second = S.search ~params ~cache_dir:dir (K.fir ()) in
  Alcotest.(check bool) "first run compiles something" true
    (first.S.o_full_evals > 0);
  Alcotest.(check int) "re-run compiles nothing" 0 second.S.o_full_evals;
  Alcotest.(check int) "re-run served from cache" second.S.o_evaluated
    second.S.o_cache_hits;
  Alcotest.(check string) "same frontier either way"
    (S.render_frontier first) (S.render_frontier second)

let test_best_point_cosims () =
  let o = S.search ~cache_dir ~jobs:2 (K.gemm ()) in
  match S.best o with
  | Some best ->
      let cs = Flow.cosim ~directives:best.S.pt_directives (K.gemm ()) in
      Alcotest.(check bool) "best design computes correctly" true cs.Flow.ok
  | None -> Alcotest.fail "no best point"

(* ------------------------------------------------------------------ *)
(* dse.json                                                           *)
(* ------------------------------------------------------------------ *)

let test_dse_json_roundtrip () =
  let o = S.search ~cache_dir ~jobs:2 (K.gemm ()) in
  let s = J.to_json ~tool:D.tool_version o in
  (match J.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("valid export rejected: " ^ e));
  Alcotest.(check bool) "carries the schema version" true
    (Str_find.contains s (Printf.sprintf "\"version\": %d" J.schema_version));
  Alcotest.(check bool) "carries the kernel name" true
    (Str_find.contains s "\"kernel\": \"gemm\"");
  let f = Filename.temp_file "mhlsc-test-dse" ".json" in
  J.write_file ~tool:D.tool_version f o;
  (match J.validate_file f with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("written file rejected: " ^ e));
  Sys.remove f

(* The export's bytes for one search with no cache directory, over both
   schedulers, so static points, "sched": "dynamic" points and
   partition lists are all covered.  The digest covers the tool
   version, so a version bump updates it too. *)
let test_dse_json_pinned () =
  let o =
    S.search
      ~scheds:[ Hls_backend.Backend.Static; Hls_backend.Backend.Dynamic ]
      (K.fir ())
  in
  Alcotest.(check string)
    "fir dse.json md5" "a165da37620c3396ae8c448fd90b157a"
    (Digest.to_hex (Digest.string (J.to_json ~tool:D.tool_version o)))

let test_dse_json_rejects_garbage () =
  let reject name s =
    match J.validate s with
    | Ok () -> Alcotest.fail (name ^ " accepted")
    | Error _ -> ()
  in
  reject "empty object" "{}";
  reject "empty string" "";
  reject "wrong version" "{\n  \"version\": 999\n}";
  reject "version but no frontier"
    (Printf.sprintf "{\n  \"version\": %d\n}" J.schema_version);
  (* the validator reads JSON, not spellings: damaged documents are
     rejected and the same document without blanks is accepted *)
  let point ?(lut = "1") label =
    Printf.sprintf
      {|{"label": "%s", "strategy": "inner", "ii": 1, "unroll": 1, "partitions": [{"array": "A", "dim": 1, "factor": 2}], "latency": 10, "bram": 1, "dsp": 1, "ff": 1, "lut": %s}|}
      label lut
  in
  let head ?(version = "1") () =
    Printf.sprintf
      "{\"version\": %s, \"tool\": \"t\",\n \"kernel\": \"fir\", \
       \"space_size\": 4, \"evaluated\": 2, \"full_evals\": 2, \
       \"cache_hits\": 0, \"stopped\": \"exhausted\",\n \"rounds\": \
       [{\"round\": 1, \"candidates\": 2, \"frontier\": 2}],\n \
       \"frontier\": [\n"
      version
  in
  let doc ?version points =
    head ?version () ^ "  " ^ String.concat ",\n  " points ^ "\n]}\n"
  in
  let accept name s =
    match J.validate s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" name e
  in
  accept "well-formed export" (doc [ point "p1"; point "p2" ]);
  reject "truncated after the first point"
    (head () ^ "  " ^ point "p1" ^ ",\n");
  reject "trailing garbage" (doc [ point "p1" ] ^ "]]");
  reject "version 12" (doc ~version:"12" [ point "p1" ]);
  reject "key with no value" (doc [ point ~lut:"" "p1" ]);
  (* the sample has no blanks inside its strings *)
  let squeeze s =
    String.concat ""
      (List.concat_map (String.split_on_char ' ') (String.split_on_char '\n' s))
  in
  accept "export without blanks" (squeeze (doc [ point "p1"; point "p2" ]))

let render_tests =
  [
    QCheck_alcotest.to_alcotest prop_dominates_irreflexive;
    QCheck_alcotest.to_alcotest prop_dominates_antisymmetric;
    QCheck_alcotest.to_alcotest prop_frontier_is_antichain;
  ]

(* [enumerate], [seeds] and [neighbors] format each label once; their
   order is still the formatting sort (by label, one point per label),
   and [size], counted from the axes, is the enumeration's length —
   for every kernel under both discipline sets *)
let test_space_order_and_size () =
  let by_label cs =
    List.sort_uniq (fun a b -> compare (Sp.describe a) (Sp.describe b)) cs
  in
  List.iter
    (fun k ->
      List.iter
        (fun scheds ->
          let sp = Sp.of_kernel ~scheds k in
          let what = k.K.kname ^ "/" ^ string_of_int (List.length scheds) in
          let all = Sp.enumerate sp in
          Alcotest.(check bool) (what ^ " enumerate order") true (all = by_label all);
          Alcotest.(check int) (what ^ " size") (List.length all) (Sp.size sp);
          let seeds = Sp.seeds sp in
          Alcotest.(check bool) (what ^ " seeds order") true (seeds = by_label seeds);
          List.iter
            (fun c ->
              let ns = Sp.neighbors sp c in
              Alcotest.(check bool)
                (what ^ " neighbors order")
                true
                (ns
                = by_label
                    (List.filter
                       (fun n -> Sp.describe n <> Sp.describe c)
                       ns)))
            seeds)
        [ [ Hls_backend.Backend.Static ]; Hls_backend.Backend.all_scheds ])
    (K.all ())

let suite =
  render_tests
  @ [
      Alcotest.test_case "dominates dimension mismatch" `Quick
        test_dominates_dimension_mismatch;
      Alcotest.test_case "insert dedups keys and ties" `Quick
        test_insert_dedups_keys_and_ties;
      Alcotest.test_case "space: gemm axes" `Quick test_space_gemm_axes;
      Alcotest.test_case "space: >= 10x legacy grid everywhere" `Quick
        test_space_at_least_10x_legacy_grid;
      Alcotest.test_case "space: describe injective" `Quick
        test_describe_injective_on_space;
      Alcotest.test_case "space: seeds well-formed" `Quick
        test_seeds_are_in_space;
      Alcotest.test_case "space: neighbors canonical" `Quick
        test_neighbors_canonical;
      Alcotest.test_case "space: order and size" `Quick
        test_space_order_and_size;
      Alcotest.test_case "search: gemm frontier" `Quick
        test_search_gemm_frontier;
      Alcotest.test_case "search: improves over baseline" `Quick
        test_search_improves_over_baseline;
      Alcotest.test_case "search: budget constrains" `Quick
        test_budget_constrains;
      Alcotest.test_case "search: early-stop knobs" `Quick
        test_early_stop_knobs;
      Alcotest.test_case "search: jobs determinism" `Quick
        test_jobs_determinism;
      Alcotest.test_case "search: weakly dominates legacy grid" `Slow
        test_weakly_dominates_legacy_grid;
      Alcotest.test_case "search: session cache reuse" `Quick
        test_session_cache_reuse;
      Alcotest.test_case "search: best point cosims" `Quick
        test_best_point_cosims;
      Alcotest.test_case "dse.json roundtrip" `Quick test_dse_json_roundtrip;
      Alcotest.test_case "dse.json pinned bytes" `Quick test_dse_json_pinned;
      Alcotest.test_case "dse.json rejects garbage" `Quick
        test_dse_json_rejects_garbage;
    ]
