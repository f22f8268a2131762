(** The traced run: per-layer figures, timed from outside the library.

    Instead of one whole-flow call, a compile job is replayed as the
    sequence of public calls {!Flow.run} makes (kernel build, mhir
    verify and canonicalize, lowering, LLVM verify, cleanup, adaptor or
    C++ emit and re-parse, estimation), each timed on {!Clock} with its
    [Gc.minor_words] delta, and the decomposed QoR must equal
    [Driver.run_job]'s.  The same outside-in approach gives the driver
    (cache key, find, store, submit), the LLVM layer on bulk modules,
    the serve codec and daemon, and the DSE counts read from
    {!Mhls_dse.Search.outcome}.

    Every traced run reports every layer.  A workload measures the
    layers it exercises on its own inputs and spends most of the time
    there; the layers it does not reach get a short probe on inputs
    drawn from the same seed (README.md lists which is which). *)

module K = Workloads.Kernels
module D = Mhls_driver.Driver
module S = Mhls_dse.Search
module Sp = Mhls_dse.Space
module P = Mhls_serve.Protocol
module H = Mhls_cli.Handlers
module E = Hls_backend.Estimate
module B = Hls_backend.Backend
module LP = Llvmir.Pass

type result = {
  layers : Stats.metric list;
  attempted : int;
  failed : int;
  problems : string list;
}

(* ------------------------------------------------------------------ *)
(* Sample store                                                       *)
(* ------------------------------------------------------------------ *)

type store = (string, float list ref) Hashtbl.t

let store () : store = Hashtbl.create 64

let add (st : store) name v =
  match Hashtbl.find_opt st name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.replace st name (ref [ v ])

let get (st : store) name = match Hashtbl.find_opt st name with Some r -> !r | None -> []

let timed_ms f =
  let r, s = Clock.timed f in
  (r, s *. 1000.)

let span st name f =
  let r, ms = timed_ms f in
  add st (name ^ ".ms") ms;
  r

(** Fork, run [f] in the child and return its marshalled result; the
    parent's state is untouched.  Only call before any domain starts. *)
let in_child (f : unit -> 'a) : 'a option =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let v = try Some (f ()) with _ -> None in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v = try (Marshal.from_channel ic : 'a option) with _ -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      v

(* ------------------------------------------------------------------ *)
(* Compile layers                                                     *)
(* ------------------------------------------------------------------ *)

let pipeline = Adaptor.Pipeline.default

(** Replay [j] as the calls {!Flow.run} makes.  Returns the QoR and
    the summed time of those calls (the report rendering is timed but
    not part of the sum: {!Flow.run} does not render). *)
let decompose (st : store) (j : D.job) : (E.report, string) Stdlib.result * float =
  let k = Option.get (K.by_name j.D.kernel) in
  let sum = ref 0. in
  let sp ?(kw = false) name f =
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let r = f () in
    let t1 = Clock.now () in
    let w1 = Gc.minor_words () in
    let ms = (t1 -. t0) *. 1000. in
    sum := !sum +. ms;
    add st (name ^ ".ms") ms;
    if kw then add st (name ^ ".kw") ((w1 -. w0) /. 1000.);
    r
  in
  let instrs name lm = add st (name ^ ".instrs") (float_of_int (Llvmir.Lmodule.instr_count lm)) in
  try
    let m = sp "workloads.build" (fun () -> k.K.build j.D.directives) in
    sp "mhir.verify" (fun () -> Mhir.Verifier.verify_module m);
    let m = sp ~kw:true "mhir.canonicalize" (fun () -> Mhir.Canonicalize.run m) in
    let lm =
      match j.D.flow with
      | Flow.Direct_ir -> (
          let lm =
            sp ~kw:true "lowering.lower" (fun () ->
                Lowering.Lower.lower_module ~style:Lowering.Lower.modern m)
          in
          instrs "lowering.lower" lm;
          sp "llvmir.verify" (fun () -> Llvmir.Lverifier.verify_module lm);
          let lm = sp ~kw:true "llvmir.cleanup" (fun () -> Flow.llvm_cleanup lm) in
          instrs "llvmir.cleanup" lm;
          match sp ~kw:true "adaptor.run" (fun () -> Adaptor.run ~pipeline lm) with
          | Ok (lm, _) ->
              instrs "adaptor.run" lm;
              Ok lm
          | Error _ -> Error "adaptor rejected the module")
      | Flow.Hls_cpp ->
          let cpp = sp "hlscpp.emit" (fun () -> Hlscpp.Emit.emit_module m) in
          add st "hlscpp.emit.bytes" (float_of_int (String.length cpp));
          let lm = sp ~kw:true "hlscpp.parse" (fun () -> Hlscpp.Ccodegen.compile cpp) in
          sp "llvmir.verify" (fun () -> Llvmir.Lverifier.verify_module lm);
          let lm = sp ~kw:true "llvmir.cleanup" (fun () -> Flow.llvm_cleanup lm) in
          instrs "llvmir.cleanup" lm;
          Ok lm
    in
    match lm with
    | Error e -> (Error e, !sum)
    | Ok lm ->
        let name = match j.D.sched with B.Static -> "hls.static" | B.Dynamic -> "hls.dynamic" in
        let r =
          sp ~kw:true name (fun () ->
              B.synthesize ~clock_ns:j.D.clock_ns ~sched:j.D.sched ~top:k.K.kname lm)
        in
        let total = !sum in
        ignore (span st "hls.report" (fun () -> Hls_backend.Report.render r));
        (Ok r, total)
  with e -> (Error (Printexc.to_string e), !sum)

let kw_vector (st : store) =
  List.sort compare
    (Hashtbl.fold
       (fun name r acc ->
         if Filename.extension name = ".kw" then (name, !r) :: acc else acc)
       st [])

type tally = { mutable ops : int; mutable fails : int; mutable problems : string list }

let problem (t : tally) msg =
  t.fails <- t.fails + 1;
  t.problems <- t.problems @ [ msg ]

(** Allocation counts must repeat exactly: the prefix is replayed in a
    forked child and in this process, from the same state.  The
    reported [.kw], [.instrs] and [.bytes] figures come from this fixed
    prefix, so they do not depend on how far the timed loop got. *)
let compile_prefix (fixed : store) (t : tally) (prefix : D.job array) =
  let run st = Array.iter (fun j -> ignore (decompose st j)) prefix in
  let child = in_child (fun () -> let st = store () in run st; kw_vector st) in
  run fixed;
  let mine = kw_vector fixed in
  Printf.printf "  .kw repeat check: %d calls in a forked child and here: %s\n"
    (List.fold_left (fun a (_, l) -> a + List.length l) 0 mine)
    (if child = Some mine then "identical" else "DIFFERENT");
  if child <> Some mine then problem t "minor-heap word counts differ between two runs of one seed"

(** [flow.reconcile] must land in this band: the layer spans cover
    every call {!Flow.run} makes except its own bookkeeping. *)
let reconcile_lo = 0.85
let reconcile_hi = 1.15

(** Untraced [run_job] loop (GC counts, the untraced p50), then the
    traced loop: per job [run_job], [Flow.run] and the decomposition,
    whose QoR must equal [run_job]'s. *)
let compile_loop (st : store) (t : tally) (jobs : D.job array) ~(budget : float) =
  let n = Array.length jobs in
  let untraced = ref [] in
  let g0 = Gc.quick_stat () in
  let deadline = Clock.now () +. (budget *. 0.25) in
  let i = ref 0 in
  while Clock.now () < deadline do
    let _, ms = timed_ms (fun () -> D.run_job ~pipeline ~cache:None jobs.(!i mod n)) in
    untraced := ms :: !untraced;
    incr i
  done;
  let g1 = Gc.quick_stat () in
  let per_op f = float_of_int (f g1 - f g0) /. float_of_int (max 1 !i) in
  add st "gc.minor_collections" (per_op (fun g -> g.Gc.minor_collections));
  add st "gc.major_collections" (per_op (fun g -> g.Gc.major_collections));
  let traced = ref [] and flows = ref [] and layer_sum = ref 0. and flow_sum = ref 0. in
  let deadline = Clock.now () +. (budget *. 0.75) in
  let i = ref 0 in
  while Clock.now () < deadline do
    let j = jobs.(!i mod n) in
    let k = Option.get (K.by_name j.D.kernel) in
    let o, job_ms = timed_ms (fun () -> D.run_job ~pipeline ~cache:None j) in
    let flow () =
      snd
        (timed_ms (fun () ->
             Flow.run ~directives:j.D.directives ~pipeline ~clock_ns:j.D.clock_ns
               ~sched:j.D.sched k j.D.flow))
    in
    (* alternate which of the two goes first, so neither always runs warmer *)
    let flow_ms, ((q, sum), traced_ms) =
      if !i mod 2 = 0 then
        let f = flow () in
        (f, timed_ms (fun () -> decompose st j))
      else
        let d = timed_ms (fun () -> decompose st j) in
        (flow (), d)
    in
    add st "flow.run.ms" flow_ms;
    add st "driver.run_job.self_ms" (job_ms -. flow_ms);
    flows := flow_ms :: !flows;
    traced := traced_ms :: !traced;
    layer_sum := !layer_sum +. sum;
    flow_sum := !flow_sum +. flow_ms;
    t.ops <- t.ops + 1;
    (match (q, o.D.o_qor) with
    | Ok a, Ok b when a = b -> ()
    | Ok _, Ok _ -> problem t (j.D.label ^ ": decomposed QoR differs from run_job's")
    | Error e, _ -> problem t (j.D.label ^ ": decomposition failed: " ^ e)
    | _, Error _ -> problem t (j.D.label ^ ": run_job failed"));
    incr i
  done;
  let reconcile = !layer_sum /. Float.max 1e-9 !flow_sum in
  add st "flow.reconcile" reconcile;
  let overhead = Stats.median !traced -. Stats.median !flows in
  add st "trace.overhead.ms" overhead;
  Printf.printf
    "  flow.reconcile %.3f (sum of layer spans / Flow.run over %d jobs; tolerance %.2f-%.2f)\n"
    reconcile !i reconcile_lo reconcile_hi;
  if reconcile < reconcile_lo || reconcile > reconcile_hi then
    problem t
      (Printf.sprintf
         "flow.reconcile %.3f is outside %.2f-%.2f: Flow.run does work the decomposition does not replay"
         reconcile reconcile_lo reconcile_hi);
  Printf.printf
    "  tracing overhead %.4f ms (p50 of the decomposed flow %.4f ms - p50 of Flow.run %.4f ms; \
     untraced run_job p50 %.4f ms)\n"
    overhead (Stats.median !traced) (Stats.median !flows) (Stats.median !untraced)

(* ------------------------------------------------------------------ *)
(* Serve daemon                                                       *)
(* ------------------------------------------------------------------ *)

(** The serve stream for [budget] seconds against a forked daemon, then
    the same requests dispatched in process: the difference between
    the round trip and {!Mhls_cli.Handlers.dispatch} of the same
    request is the serve overhead.  Returns the bulk requests sent and
    the reply frames received, for the codec and LLVM phases. *)
let serve_phase (st : store) (t : tally) (si : Inputs.serve_inputs) ~(budget : float) ~dir =
  let d = Daemon.start ~socket:(Filename.concat dir "traced.sock") in
  let c = Daemon.connect d in
  Array.iter (fun r -> ignore (Daemon.request c r.Inputs.req)) (Inputs.hot_requests si);
  Mhls_serve.Client.close c;
  let samples, crashed = Untraced.run_clients d si ~seconds:budget in
  let stats = Daemon.stats d in
  Daemon.stop d;
  List.iter (problem t) crashed;
  t.ops <- t.ops + List.length samples;
  List.iter
    (fun (s : Untraced.sample) ->
      match s.Untraced.s_reply with
      | Ok (P.Done _) -> ()
      | Ok (P.Busy _) -> t.fails <- t.fails + 1
      | _ -> problem t (s.Untraced.s_req.Inputs.label ^ ": not answered"))
    samples;
  (match stats with
  | Some s ->
      let served = float_of_int (max 1 s.P.st_served) in
      add st "serve.memo_hit_ratio" (float_of_int s.P.st_memo_hits /. served);
      add st "serve.coalesce_ratio" (float_of_int s.P.st_coalesced /. served);
      add st "serve.evaluated" (float_of_int s.P.st_evaluated)
  | None -> problem t "stats request failed");
  (* in-process dispatch of each distinct cold request, and hls lint *)
  let env = H.create_env ~jobs:1 () in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (s : Untraced.sample) ->
      let r = s.Untraced.s_req in
      if r.Inputs.kind = Inputs.Cold && not (Hashtbl.mem seen r.Inputs.label) then (
        Hashtbl.replace seen r.Inputs.label ();
        let name = match r.Inputs.req with P.Lint _ -> "lint" | _ -> "compile" in
        let reply, ms = timed_ms (fun () -> H.dispatch env ~trace:Support.Tracing.null r.Inputs.req) in
        if Result.is_error reply then problem t (r.Inputs.label ^ ": in-process dispatch failed");
        add st ("cli.dispatch." ^ name ^ ".ms") ms;
        add st "serve.overhead.ms" (s.Untraced.s_ms -. ms);
        match r.Inputs.target with
        | Inputs.Lint_job (k, dirs) -> (
            let relaxed = Adaptor.Pipeline.relaxed (Inputs.serve_pipeline k) in
            match Flow.direct_ir_frontend ~pipeline:relaxed (k.K.build dirs) with
            | Ok (lm, _, _) ->
                ignore (span st "hls.lint" (fun () -> Hls_backend.Lint.run ~top:k.K.kname lm))
            | Error _ -> problem t (r.Inputs.label ^ ": lint frontend failed"))
        | _ -> ()))
    samples;
  H.close_env env;
  let bulk =
    List.filter_map
      (fun (s : Untraced.sample) ->
        match (s.Untraced.s_req.Inputs.target, s.Untraced.s_reply) with
        | Inputs.Opt_module _, Ok rep -> Some (s.Untraced.s_req, rep)
        | _ -> None)
      samples
  in
  let compile_jobs =
    List.filter_map
      (fun (s : Untraced.sample) ->
        match s.Untraced.s_req.Inputs.target with Inputs.Compile_job j -> Some j | _ -> None)
      samples
  in
  (bulk, compile_jobs)

(* ------------------------------------------------------------------ *)
(* LLVM layer on bulk modules, and the serve codec                    *)
(* ------------------------------------------------------------------ *)

let mb s = float_of_int (String.length s) /. 1e6

let bulk_phase (st : store) (t : tally) (reqs : Inputs.sreq list) =
  let fanout = Mhls_driver.Pool.fanout ~jobs:(Daemon.jobs ()) in
  List.iter
    (fun (r : Inputs.sreq) ->
      match r.Inputs.req with
      | P.Opt ({ P.op_source = Some text; _ } as o) ->
          t.ops <- t.ops + 1;
          let m, ms = timed_ms (fun () -> Llvmir.Lparser.parse_module text) in
          add st "llvmir.parse.ms_per_mb" (ms /. mb text);
          let kinstr = float_of_int (Llvmir.Lmodule.instr_count m) /. 1000. in
          let out, ms = timed_ms (fun () -> fst (LP.run_pipeline LP.default_pipeline m)) in
          add st "llvmir.pipeline.ms_per_kinstr" (ms /. kinstr);
          let _, ms =
            timed_ms (fun () -> LP.run_pipeline_parallel ~fanout LP.default_pipeline m)
          in
          add st "llvmir.pipeline_par.ms_per_kinstr" (ms /. kinstr);
          let text_out, ms = timed_ms (fun () -> Llvmir.Lprinter.module_to_string out) in
          add st "llvmir.print.ms_per_mb" (ms /. mb text_out);
          ignore (span st "llvmir.effects" (fun () -> Llvmir.Effects.summarize m));
          ignore (span st "llvmir.parsafe" (fun () -> Llvmir.Parsafe.check m));
          if Result.is_error (span st "cli.dispatch.opt" (fun () -> H.opt o)) then
            problem t (r.Inputs.label ^ ": in-process opt failed")
      | _ -> ())
    reqs

(** Encode each frame, then decode it the way the reactor reads it: in
    64 KiB chunks, appending to the connection buffer and re-scanning
    after every chunk. *)
let frame_phase (st : store) (frames : P.frame list) =
  List.iter
    (fun f ->
      let s, ms = timed_ms (fun () -> P.encode_frame f) in
      add st "serve.frame_encode.ms_per_mb" (ms /. mb s);
      let n = String.length s in
      let _, ms =
        timed_ms (fun () ->
            let buf = ref "" and pos = ref 0 and got = ref 0 in
            while !pos < n do
              let len = min 65536 (n - !pos) in
              buf := !buf ^ String.sub s !pos len;
              pos := !pos + len;
              match P.decode_frames !buf with
              | Ok (fs, rest) ->
                  got := !got + List.length fs;
                  buf := rest
              | Error _ -> pos := n
            done;
            !got)
      in
      add st "serve.frame_decode.ms_per_mb" (ms /. mb s))
    frames

(* ------------------------------------------------------------------ *)
(* Driver cache and session                                           *)
(* ------------------------------------------------------------------ *)

(** Each job looked up, stored and looked up again on a fresh on-disk
    cache (one miss and one hit per distinct job), then the same jobs
    through a driver session. *)
let cache_phase (st : store) (t : tally) (jobs : D.job array) ~dir =
  let cache = Mhls_driver.Cache.create ~dir:(Filename.concat dir "cache") in
  Array.iter
    (fun j ->
      t.ops <- t.ops + 1;
      match span st "driver.cache_key" (fun () -> D.cache_key ~pipeline j) with
      | None -> problem t (j.D.label ^ ": no cache key")
      | Some key ->
          ignore (span st "driver.cache_find" (fun () -> Mhls_driver.Cache.find cache key));
          let o = D.run_job ~pipeline ~cache:None j in
          let payload = Marshal.to_string (o.D.o_qor, o.D.o_trace, o.D.o_adaptor) [] in
          span st "driver.cache_store" (fun () -> Mhls_driver.Cache.store cache key payload);
          if span st "driver.cache_find" (fun () -> Mhls_driver.Cache.find cache key) <> Some payload
          then problem t (j.D.label ^ ": cache returned a different entry"))
    jobs;
  let h = Mhls_driver.Cache.hits cache and m = Mhls_driver.Cache.misses cache in
  add st "driver.cache.hit_ratio" (float_of_int h /. float_of_int (max 1 (h + m)));
  let session =
    D.create_session ~cache_dir:(Filename.concat dir "session") ~jobs:(Daemon.jobs ()) ()
  in
  let outs, ms = timed_ms (fun () -> D.submit session (Array.to_list jobs)) in
  D.close_session session;
  add st "driver.submit.ms_per_job" (ms /. float_of_int (max 1 (Array.length jobs)));
  match outs with
  | Ok os when List.for_all (fun o -> Result.is_ok o.D.o_qor) os -> ()
  | _ -> problem t "driver session submit failed"

(* ------------------------------------------------------------------ *)
(* DSE                                                                *)
(* ------------------------------------------------------------------ *)

(** The export with the cache-state counters masked: a warm search
    must reproduce everything else byte for byte. *)
let frontier_json (o : S.outcome) =
  Mhls_dse.Dse_json.to_json ~tool:D.tool_version
    { o with S.o_full_evals = 0; o_cache_hits = 0 }

(** Cold then warm search per item, until [budget] seconds have passed
    (at least one item).  The count figures come from the first item's
    cold search only, so they repeat for a seed. *)
let dse_phase (st : store) (t : tally) (items : Inputs.dse_item array) ~budget ~dir =
  let jobs = Daemon.jobs () in
  let deadline = Clock.now () +. budget in
  let i = ref 0 in
  while !i = 0 || Clock.now () < deadline do
    let it = items.(!i mod Array.length items) in
    let k = it.Inputs.d_kernel and scheds = it.Inputs.d_scheds in
    let cache_dir = Filename.concat dir (Printf.sprintf "tdse%d" !i) in
    ignore (span st "dse.space" (fun () -> Sp.of_kernel ~scheds k));
    (match
       let cold = S.search ~scheds ~cache_dir ~jobs k in
       let warm = S.search ~scheds ~cache_dir ~jobs k in
       (cold, warm)
     with
    | exception e -> problem t (Inputs.dse_label it ^ ": " ^ Printexc.to_string e)
    | cold, warm ->
        t.ops <- t.ops + 2;
        if frontier_json cold <> frontier_json warm then
          problem t (Inputs.dse_label it ^ ": warm export differs from cold");
        if warm.S.o_full_evals <> 0 then
          problem t (Inputs.dse_label it ^ ": warm search compiled again");
        if !i = 0 then (
          let count name v = add st name (float_of_int v) in
          count "dse.rounds" (List.length cold.S.o_rounds);
          count "dse.candidates"
            (List.fold_left (fun a r -> a + r.S.rs_candidates) 0 cold.S.o_rounds);
          count "dse.full_evals" cold.S.o_full_evals;
          count "dse.frontier" (List.length cold.S.o_frontier);
          add st "dse.full_eval_ratio"
            (float_of_int cold.S.o_full_evals /. float_of_int (max 1 cold.S.o_evaluated))));
    Untraced.rm_rf cache_dir;
    incr i
  done

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

(** Every per-layer metric, in report order: name, unit, and how the
    samples reduce to one number. *)
let catalog : (string * string * [ `Median | `Ratio ]) list =
  [
    ("workloads.build.ms", "ms", `Median);
    ("mhir.verify.ms", "ms", `Median);
    ("mhir.canonicalize.ms", "ms", `Median);
    ("mhir.canonicalize.kw", "kwords", `Median);
    ("lowering.lower.ms", "ms", `Median);
    ("lowering.lower.kw", "kwords", `Median);
    ("lowering.lower.instrs", "count", `Median);
    ("llvmir.verify.ms", "ms", `Median);
    ("llvmir.cleanup.ms", "ms", `Median);
    ("llvmir.cleanup.kw", "kwords", `Median);
    ("llvmir.cleanup.instrs", "count", `Median);
    ("adaptor.run.ms", "ms", `Median);
    ("adaptor.run.kw", "kwords", `Median);
    ("adaptor.run.instrs", "count", `Median);
    ("hls.static.ms", "ms", `Median);
    ("hls.static.kw", "kwords", `Median);
    ("hls.dynamic.ms", "ms", `Median);
    ("hls.dynamic.kw", "kwords", `Median);
    ("hls.report.ms", "ms", `Median);
    ("hlscpp.emit.ms", "ms", `Median);
    ("hlscpp.emit.bytes", "bytes", `Median);
    ("hlscpp.parse.ms", "ms", `Median);
    ("hlscpp.parse.kw", "kwords", `Median);
    ("flow.run.ms", "ms", `Median);
    ("flow.reconcile", "ratio", `Ratio);
    ("driver.run_job.self_ms", "ms", `Median);
    ("trace.overhead.ms", "ms", `Ratio);
    ("gc.minor_collections", "count/op", `Ratio);
    ("gc.major_collections", "count/op", `Ratio);
    ("llvmir.parse.ms_per_mb", "ms/MB", `Median);
    ("llvmir.print.ms_per_mb", "ms/MB", `Median);
    ("llvmir.pipeline.ms_per_kinstr", "ms/kinstr", `Median);
    ("llvmir.pipeline_par.ms_per_kinstr", "ms/kinstr", `Median);
    ("llvmir.effects.ms", "ms", `Median);
    ("llvmir.parsafe.ms", "ms", `Median);
    ("cli.dispatch.opt.ms", "ms", `Median);
    ("driver.cache_key.ms", "ms", `Median);
    ("driver.cache_find.ms", "ms", `Median);
    ("driver.cache_store.ms", "ms", `Median);
    ("driver.cache.hit_ratio", "ratio", `Ratio);
    ("driver.submit.ms_per_job", "ms", `Ratio);
    ("dse.space.ms", "ms", `Median);
    ("dse.rounds", "count", `Median);
    ("dse.candidates", "count", `Median);
    ("dse.full_evals", "count", `Median);
    ("dse.full_eval_ratio", "ratio", `Ratio);
    ("dse.frontier", "count", `Median);
    ("serve.frame_encode.ms_per_mb", "ms/MB", `Median);
    ("serve.frame_decode.ms_per_mb", "ms/MB", `Median);
    ("serve.overhead.ms", "ms", `Median);
    ("serve.memo_hit_ratio", "ratio", `Ratio);
    ("serve.coalesce_ratio", "ratio", `Ratio);
    ("serve.evaluated", "count", `Ratio);
    ("cli.dispatch.compile.ms", "ms", `Median);
    ("cli.dispatch.lint.ms", "ms", `Median);
    ("hls.lint.ms", "ms", `Median);
  ]

let probe_bulk (si : Inputs.serve_inputs) : Inputs.sreq list =
  let small = si.Inputs.bulk_classes.(0) and mid = si.Inputs.bulk_classes.(2) in
  [ Inputs.opt_request si ~n:small ~parallel:false; Inputs.opt_request si ~n:mid ~parallel:true ]

let run ~workload ~seed ~seconds ~dir : result =
  let st = store () and fixed = store () in
  let t = { ops = 0; fails = 0; problems = [] } in
  let serve = workload = "serve-mix" in
  (* inputs: the workload's own, and the other workload's for probes *)
  let si = Inputs.serve_inputs ~seed in
  let items = Inputs.dse_items ~seed in
  let pool = Inputs.compile_pool ~seed in
  Printf.printf "phases (native = the workload's own inputs; probe = short, same seed):\n%!";
  (* 1. forks happen before any domain starts *)
  compile_prefix fixed t (Array.sub pool 0 (min 200 (Array.length pool)));
  Printf.printf "  serve daemon: %s\n%!" (if serve then "native" else "probe");
  let bulk, served_jobs = serve_phase st t si ~budget:(if serve then seconds *. 0.5 else 1.0) ~dir in
  (* 2. compile layers on the workload's own compile jobs *)
  let compile_jobs = if serve && served_jobs <> [] then Array.of_list served_jobs else pool in
  Printf.printf "  compile layers: native\n%!";
  compile_loop st t compile_jobs ~budget:(seconds *. if serve then 0.2 else 0.7);
  (* 3. LLVM layer on bulk modules, and the serve codec *)
  let bulk_reqs =
    if serve then
      List.sort_uniq (fun (a : Inputs.sreq) b -> compare a.Inputs.label b.Inputs.label)
        (List.map fst bulk)
    else probe_bulk si
  in
  Printf.printf "  llvmir on bulk modules: %s (%d modules)\n%!"
    (if serve then "native" else "probe")
    (List.length bulk_reqs);
  bulk_phase st t bulk_reqs;
  let frames =
    List.map (fun (r : Inputs.sreq) -> P.Request { q_id = 1; q_stream = false; q_req = r.Inputs.req }) bulk_reqs
    @ List.map (fun (_, rep) -> P.Response { r_id = 1; r_reply = rep }) bulk
  in
  frame_phase st frames;
  (* 4. driver cache and session, on the workload's jobs *)
  Printf.printf "  driver cache: probe\n%!";
  cache_phase st t (Array.sub compile_jobs 0 (min 24 (Array.length compile_jobs))) ~dir;
  (* 5. DSE *)
  Printf.printf "  dse: probe\n%!";
  dse_phase st t items ~budget:1.0 ~dir;
  (* the fixed-prefix counts replace the loop's *)
  Hashtbl.iter
    (fun name r ->
      if List.mem (Filename.extension name) [ ".kw"; ".instrs"; ".bytes" ] then
        Hashtbl.replace st name r)
    fixed;
  let layers =
    List.map
      (fun (name, unit_, how) ->
        let xs = get st name in
        let v =
          match (how, xs) with
          | _, [] -> Float.nan
          | `Median, xs -> Stats.median xs
          | `Ratio, x :: _ -> x
        in
        if Float.is_nan v then problem t (name ^ ": no samples");
        Stats.metric name unit_ (if Float.is_nan v then 0. else v))
      catalog
  in
  { layers; attempted = max 1 t.ops; failed = t.fails; problems = t.problems }
