(** The two workloads, untraced: every end-to-end metric comes from
    here.  Each is a closed loop (a caller waits for its reply before
    sending the next request) measured for [seconds] seconds after a
    set-up that builds the inputs, starts the daemon if there is one
    and runs one warm-up pass.

    The gated times are scaled to a reference host, stretch by stretch
    (see {!Calib}); the reference runs are never inside a timed span. *)

module K = Workloads.Kernels
module D = Mhls_driver.Driver
module P = Mhls_serve.Protocol
module E = Hls_backend.Estimate

type result = {
  e2e : Stats.metric list;  (** the gated metrics, same names for every workload *)
  named : Stats.metric list;  (** unscaled figures, under workload-specific names *)
  attempted : int;
  failed : int;  (** failed, busy or mis-checked operations *)
  problems : string list;  (** oracle mismatches *)
  input_digest : string;
  output_digest : string;
}

(** Set-ups per run; [setup_s] is the median of their scaled times. *)
let setup_reps = 7

(** Run [setup] {!setup_reps} times, each between two samples of
    [calib] and scaled by them; the last repetition's value is kept
    ([release] disposes of the others, outside the timed span). *)
let repeat_setup (calib : Calib.t) ~(release : 'a -> unit) (setup : unit -> 'a) : 'a * float =
  let raw = ref [] and scaled = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    Option.iter release !last;
    let before = calib.Calib.sample () in
    let v, s = Clock.timed setup in
    let after = calib.Calib.sample () in
    raw := s :: !raw;
    scaled := (s *. Calib.factor calib ~before ~after) :: !scaled;
    last := Some v
  done;
  let show l = String.concat " " (List.rev_map (Printf.sprintf "%.3f") l) in
  Printf.printf "  set-up: %s s; scaled %s s (median of %d)\n" (show !raw) (show !scaled)
    setup_reps;
  (Option.get !last, Stats.median !scaled)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let self_rss_mb () = Daemon.vmhwm_mb (Unix.getpid ())

(** The latency tail: the named percentile, and how many samples lie
    beyond it (the percentile is chosen so that at least ten do). *)
let tail_line ~what ~(p : float) (lat : float list) =
  let n = List.length lat in
  Printf.printf "  %s: %d samples, p%g has %d beyond it%s\n" what n p
    (Stats.beyond n p)
    (if Stats.beyond n p < 10 then " (fewer than ten: tail is noisy)" else "")

(** The gated metrics; every time and rate is already scaled. *)
let e2e ~setup_s ~rss ~throughput ~p50 ~tail =
  Stats.
    [
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" rss;
      metric "throughput_per_s" "1/s" throughput;
      metric "p50_ms" "ms" p50;
      metric "tail_ms" "ms" tail;
    ]

let error_ratio ~attempted ~failed =
  Stats.metric "error_ratio" "ratio"
    (float_of_int failed /. float_of_int (max 1 attempted))

(* ------------------------------------------------------------------ *)
(* compile-mix                                                        *)
(* ------------------------------------------------------------------ *)

let pipeline = Adaptor.Pipeline.default

(** One pass over the pool: each job's latency (ms), how many jobs ran
    and how long the pass took. *)
type pass = { lat : float list; jobs : int; seconds : float; factor : float }

let compile_mix ~seed ~seconds : result =
  let setup () =
    let pool = Inputs.compile_pool ~seed in
    Array.iter (fun j -> ignore (D.run_job ~pipeline ~cache:None j)) pool;
    pool
  in
  let calib = Calib.single in
  let pool, setup_s = repeat_setup calib ~release:ignore setup in
  let n = Array.length pool in
  let qor = Array.make n None and runs = Array.make n 0 in
  let passes = ref [] and attempted = ref 0 and failed = ref 0 in
  let deadline = Clock.now () +. seconds in
  (* a stretch is one pass over the pool, in its seeded order *)
  let before = ref (calib.Calib.sample ()) in
  while Clock.now () < deadline do
    let lat = ref [] and k = ref 0 in
    let t_pass = Clock.now () in
    while !k < n && Clock.now () < deadline do
      let o, s = Clock.timed (fun () -> D.run_job ~pipeline ~cache:None pool.(!k)) in
      lat := (s *. 1000.) :: !lat;
      incr attempted;
      runs.(!k) <- runs.(!k) + 1;
      (match (o.D.o_qor, qor.(!k)) with
      | Error _, _ -> incr failed
      | Ok r, None -> qor.(!k) <- Some r
      | Ok r, Some r0 -> if r <> r0 then incr failed);
      incr k
    done;
    let t = Clock.now () -. t_pass in
    let after = calib.Calib.sample () in
    passes :=
      { lat = !lat; jobs = !k; seconds = t; factor = Calib.factor calib ~before:!before ~after }
      :: !passes;
    before := after
  done;
  let rss = self_rss_mb () in
  let problems = ref [] and outputs = ref [] in
  Array.iteri
    (fun idx q ->
      match q with
      | None -> ()
      | Some r ->
          let p = Oracle.check_job ~pipeline pool.(idx) r in
          if p <> [] then failed := !failed + runs.(idx);
          problems := !problems @ p;
          outputs := (pool.(idx).D.label ^ "\n" ^ Hls_backend.Report.render r) :: !outputs)
    qor;
  let raw = List.concat_map (fun p -> p.lat) !passes in
  let scaled = List.concat_map (fun p -> List.map (fun ms -> ms *. p.factor) p.lat) !passes in
  (* the rate of a partial pass depends on where it stopped *)
  let full = List.filter (fun p -> p.jobs = n) !passes in
  let rated = if full = [] then !passes else full in
  let rate p = float_of_int p.jobs /. Float.max 1e-9 p.seconds in
  let sr = Stats.sorted scaled and ar = Stats.sorted raw in
  Printf.printf "  %d runs of %d distinct jobs, %d full passes over the pool\n" !attempted n
    (List.length full);
  Printf.printf "  host: %s\n" (Calib.describe calib (List.map (fun p -> p.factor) !passes));
  tail_line ~what:"job runs" ~p:99. raw;
  {
    e2e =
      e2e ~setup_s ~rss
        ~throughput:(Stats.median (List.map (fun p -> rate p /. p.factor) rated))
        ~p50:(Stats.percentile sr 50.) ~tail:(Stats.percentile sr 99.);
    named =
      Stats.
        [
          metric "compile_jobs_per_s" "1/s" (Stats.median (List.map rate rated));
          metric "compile_p50_ms" "ms" (Stats.percentile ar 50.);
          metric "compile_p99_ms" "ms" (Stats.percentile ar 99.);
          error_ratio ~attempted:!attempted ~failed:!failed;
        ];
    attempted = !attempted;
    failed = !failed;
    problems = !problems;
    input_digest =
      Inputs.digest_of (Array.to_list (Array.map (fun j -> j.D.label) pool));
    output_digest = Inputs.digest_of (List.rev !outputs);
  }

(* ------------------------------------------------------------------ *)
(* serve-mix                                                          *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_req : Inputs.sreq;
  s_ms : float;
  s_done : float;  (** completion, seconds since the clients started *)
  s_reply : (P.reply, string) Stdlib.result;
}

(** [nproc] client connections, each a closed loop over its seeded
    stream for [seconds] seconds.  Returns the samples and, for a
    connection that stopped with an exception, what it was. *)
let run_clients (d : Daemon.t) (si : Inputs.serve_inputs) ~seconds :
    sample list * string list =
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  let client conn () =
    let out = ref [] in
    try
      let next = Inputs.stream si ~conn in
      let c = Daemon.connect d in
      while Clock.now () < deadline do
        let r = next () in
        let t0 = Clock.now () in
        let reply = Mhls_serve.Client.request c r.Inputs.req in
        let t1 = Clock.now () in
        out :=
          { s_req = r; s_ms = (t1 -. t0) *. 1000.; s_done = t1 -. t_start; s_reply = reply }
          :: !out
      done;
      Mhls_serve.Client.close c;
      (!out, [])
    with e -> (!out, [ Printf.sprintf "client %d: %s" conn (Printexc.to_string e) ])
  in
  let results = Array.make (Daemon.jobs ()) ([], []) in
  let threads =
    List.init (Daemon.jobs ()) (fun conn ->
        Thread.create (fun () -> results.(conn) <- client conn ()) ())
  in
  List.iter Thread.join threads;
  let all = Array.to_list results in
  (List.concat_map fst all, List.concat_map snd all)

let ok_reply (s : sample) =
  match s.s_reply with Ok (P.Done _) -> true | _ -> false

(** Check one distinct request's reply in process. *)
let check_reply ~(bulk_input : Llvmir.Lmodule.t Lazy.t) ~seed (s : sample) :
    string list =
  let label = s.s_req.Inputs.label in
  match (s.s_req.Inputs.target, s.s_reply) with
  | Inputs.Compile_job j, Ok (P.Done (P.R_compile cr)) -> (
      let k = Option.get (K.by_name j.D.kernel) in
      match
        Flow.run ~directives:j.D.directives ~pipeline:(Inputs.serve_pipeline k)
          ~clock_ns:j.D.clock_ns ~sched:j.D.sched k j.D.flow
      with
      | Error _ -> [ label ^ ": in-process Flow.run failed" ]
      | Ok r ->
          if Hls_backend.Report.render r.Flow.hls = cr.P.cr_report
             && r.Flow.hls.E.latency = cr.P.cr_latency
          then []
          else [ label ^ ": cr_report differs from the in-process Report.render" ])
  | Inputs.Lint_job (k, d), Ok (P.Done (P.R_lint lr)) ->
      if Flow.lint_kernel ~directives:d ~pipeline:(Inputs.serve_pipeline k) k = lr.P.lr_diags
      then []
      else [ label ^ ": lint findings differ from the in-process Flow.lint_kernel" ]
  | Inputs.Opt_module n, Ok (P.Done (P.R_opt o)) ->
      Oracle.check_opt ~input:(Lazy.force bulk_input) ~n ~seed ~label o.P.or_ir
  | _, Ok (P.Busy _) -> [ label ^ ": busy" ]
  | _, Ok (P.Failed ds) ->
      [ label ^ ": failed: " ^ String.concat "; " (List.map Support.Diag.to_string ds) ]
  | _, Ok (P.Done _) -> [ label ^ ": reply of the wrong kind" ]
  | _, Error e -> [ label ^ ": " ^ e ]

let serve_mix ~seed ~seconds ~dir : result =
  let socket = Filename.concat dir "serve.sock" in
  let setup () =
    let si = Inputs.serve_inputs ~seed in
    let d = Daemon.start ~socket in
    let c = Daemon.connect d in
    Array.iter (fun r -> ignore (Daemon.request c r.Inputs.req)) (Inputs.hot_requests si);
    ignore (Daemon.request c (Inputs.largest_bulk si).Inputs.req);
    Mhls_serve.Client.close c;
    (si, d)
  in
  (* the helper is forked before any domain starts, and killed at the
     end whatever happens *)
  let pair = Calib.start_pair () in
  Fun.protect ~finally:(fun () -> Calib.stop_pair pair) @@ fun () ->
  let calib = Calib.of_pair pair in
  (* the first sample pays the copy-on-write faults of the fork *)
  ignore (calib.Calib.sample ());
  let (si, d), setup_s = repeat_setup calib ~release:(fun (_, d) -> Daemon.stop d) setup in
  (* the daemon is idle while the reference runs, right before and
     right after the measured window (once it has answered the stats
     request, it has drained every connection) *)
  let before = calib.Calib.sample () in
  let samples, crashed = run_clients d si ~seconds in
  let stats = Daemon.stats d in
  let after = calib.Calib.sample () in
  let f = Calib.factor calib ~before ~after in
  let rss = Daemon.vmhwm_mb d.Daemon.pid in
  Daemon.stop d;
  let attempted = List.length samples in
  let bulk_input = lazy (Mhls_driver.Synth.many_kernels ~n:si.Inputs.bulk.Inputs.max_functions) in
  let firsts = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let l = s.s_req.Inputs.label in
      if ok_reply s && not (Hashtbl.mem firsts l) then Hashtbl.replace firsts l s)
    (List.sort (fun a b -> Float.compare a.s_done b.s_done) samples);
  let bad = Hashtbl.create 16 and problems = ref crashed in
  Hashtbl.iter
    (fun l s ->
      let p = check_reply ~bulk_input ~seed s in
      if p <> [] then (
        Hashtbl.replace bad l ();
        problems := !problems @ p))
    firsts;
  let failed =
    List.length
      (List.filter (fun s -> (not (ok_reply s)) || Hashtbl.mem bad s.s_req.Inputs.label) samples)
  in
  (* a valid request answered with an error is a wrong output; busy
     is only a failed operation *)
  List.iter
    (fun s ->
      match s.s_reply with
      | Ok (P.Done _ | P.Busy _) -> ()
      | _ -> problems := !problems @ check_reply ~bulk_input ~seed s)
    samples;
  let small = List.filter (fun s -> s.s_req.Inputs.kind <> Inputs.Bulk) samples in
  let bulk = List.filter (fun s -> s.s_req.Inputs.kind = Inputs.Bulk) samples in
  let lat = Stats.sorted (List.map (fun s -> s.s_ms) small) in
  let p50 = Stats.percentile lat 50. and p99 = Stats.percentile lat 99. in
  let elapsed = List.fold_left (fun a s -> Float.max a s.s_done) 0. samples in
  let rps = Stats.chunked_rate (List.map (fun s -> s.s_done) samples) ~chunk:200 in
  Printf.printf "  %d requests in %.3f s: %.3f/s overall, %.3f/s median over 200-request chunks\n"
    attempted elapsed (float_of_int attempted /. Float.max 1e-9 elapsed) rps;
  Printf.printf
    "  host: %s %.4f ms before and %.4f ms after the window; times scaled by %.4f to a host \
     where it takes %.1f ms\n"
    calib.Calib.name before after f calib.Calib.reference_ms;
  tail_line ~what:"hot+cold requests" ~p:99. (List.map (fun s -> s.s_ms) small);
  Printf.printf "  requests: %d hot, %d cold, %d bulk\n"
    (List.length (List.filter (fun s -> s.s_req.Inputs.kind = Inputs.Hot) samples))
    (List.length (List.filter (fun s -> s.s_req.Inputs.kind = Inputs.Cold) samples))
    (List.length bulk);
  (match stats with
  | Some st ->
      Printf.printf "  daemon: served %d, evaluated %d, memo hits %d, coalesced %d, busy %d\n"
        st.P.st_served st.P.st_evaluated st.P.st_memo_hits st.P.st_coalesced st.P.st_busy
  | None -> problems := "stats request failed" :: !problems);
  let outputs =
    Hashtbl.fold
      (fun l s acc ->
        match (s.s_req.Inputs.kind, s.s_reply) with
        | Inputs.Hot, Ok (P.Done (P.R_compile cr)) -> (l ^ "\n" ^ cr.P.cr_report) :: acc
        | Inputs.Hot, Ok (P.Done (P.R_lint lr)) ->
            (l ^ "\n" ^ String.concat "\n" (List.map Support.Diag.to_string lr.P.lr_diags))
            :: acc
        | _ -> acc)
      firsts []
  in
  let first_block conn =
    let next = Inputs.stream si ~conn in
    List.init Inputs.block (fun _ -> (next ()).Inputs.label)
  in
  {
    e2e = e2e ~setup_s ~rss ~throughput:(rps /. f) ~p50:(p50 *. f) ~tail:(p99 *. f);
    named =
      Stats.
        [
          metric "serve_rps" "1/s" rps;
          metric "serve_p50_ms" "ms" p50;
          metric "serve_p99_ms" "ms" p99;
          metric "serve_bulk_p50_ms" "ms" (Stats.median (List.map (fun s -> s.s_ms) bulk));
          error_ratio ~attempted ~failed;
        ];
    attempted;
    failed;
    problems = !problems;
    input_digest =
      Inputs.digest_of
        (List.concat_map first_block (List.init (Daemon.jobs ()) Fun.id)
        @ Array.to_list (Array.map string_of_int si.Inputs.bulk_classes));
    output_digest = Inputs.digest_of (List.sort compare outputs);
  }
