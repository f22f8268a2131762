(** The CLI's historical output formats, as pure [response -> string]
    functions over the handler result types.

    Kept separate from {!Handlers} so the formats are defined exactly
    once: [bin/mhlsc.ml] prints these strings byte-for-byte as the
    pre-registry CLI did, and tests compare daemon responses against
    them. *)

module K = Workloads.Kernels
module E = Hls_backend.Estimate
module P = Mhls_serve.Protocol

(** `mhlsc list`. *)
let kernel_list (ks : P.kernel_info list) : string =
  String.concat ""
    (List.map
       (fun k -> Printf.sprintf "%-10s %s\n" k.P.k_name k.P.k_description)
       ks)

(** `mhlsc synth` / `mhlsc compile`: header line, optional adaptor
    report, synthesis report. *)
let compile ?(verbose = false) (r : P.compile_resp) : string =
  Printf.sprintf "kernel: %s   flow: %s   front-end: %.1f ms\n" r.P.cr_kernel
    r.P.cr_flow
    (r.P.cr_seconds *. 1000.0)
  ^ (if verbose then Option.value r.P.cr_adaptor ~default:"" else "")
  ^ r.P.cr_report

(** `mhlsc compare`: one column per cell of the {!Flow.compare_flows}
    grid, in its order.  The statically-scheduled cells carry the
    paper's flow names, and the ratio line is computed on them. *)
let compare (cells : Flow.result list) : string =
  let b = Buffer.create 512 in
  let row name f =
    Buffer.add_string b (Printf.sprintf "%-12s" name);
    List.iter (fun c -> Buffer.add_string b (Printf.sprintf " %12s" (f c))) cells;
    Buffer.add_char b '\n'
  in
  row "" (fun c ->
      match (c.Flow.sched, c.Flow.kind) with
      | Hls_backend.Backend.Static, Flow.Direct_ir -> "direct-IR"
      | Static, Hls_cpp -> "HLS C++"
      | Dynamic, Direct_ir -> "direct/dyn"
      | Dynamic, Hls_cpp -> "cpp/dyn");
  row "latency" (fun c -> string_of_int c.Flow.hls.E.latency);
  row "BRAM" (fun c -> string_of_int c.Flow.hls.E.resources.E.bram);
  row "DSP" (fun c -> string_of_int c.Flow.hls.E.resources.E.dsp);
  row "time (ms)" (fun c -> Printf.sprintf "%.1f" (c.Flow.seconds *. 1000.0));
  Buffer.add_string b
    (Printf.sprintf "latency ratio (cpp/direct): %.3f\n" (Flow.latency_ratio cells));
  Buffer.contents b

(** `mhlsc cosim` (stdout part; the exit code comes from [ok]). *)
let cosim (cs : Flow.cosim_outcome) : string =
  if cs.Flow.ok then
    Printf.sprintf "cosim PASS (max relative error %.2e)\n"
      cs.Flow.max_abs_error
  else
    "cosim FAIL\n"
    ^ String.concat "" (List.map (fun d -> d ^ "\n") cs.Flow.details)

(** `mhlsc lint --list-rules`: one row per rule from the registry. *)
let rule_list ~json =
  let cat = Hls_backend.Lint.catalog in
  if json then
    Support.Json.(
      to_string
        (List
           (List.map
              (fun (id, sev, summary) ->
                Obj
                  [
                    ("id", Str id);
                    ("severity", Str (Support.Diag.severity_name sev));
                    ("summary", Str summary);
                  ])
              cat)))
    ^ "\n"
  else
    String.concat ""
      (List.map
         (fun (id, sev, summary) ->
           Printf.sprintf "%-8s %-8s %s\n" id
             (Support.Diag.severity_name sev)
             summary)
         cat)

(** `mhlsc dse` tail: best point or infeasibility note. *)
let dse_best (r : P.dse_resp) : string =
  match r.P.dr_best with
  | Some (label, latency) ->
      Printf.sprintf "\nbest: %s (%d cycles)\n" label latency
  | None -> "\nno feasible design point under this budget\n"

(** `mhlsc client`: any reply as one JSON document (the response frame
    without the envelope id). *)
let reply_json (r : P.reply) : string =
  Support.Json.to_string
    (P.frame_to_json (P.Response { r_id = 0; r_reply = r }))

(** `mhlsc serve --stats`-style human summary of a stats payload. *)
let stats (s : P.stats_resp) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "served %d (evaluated %d, coalesced %d, memo hits %d, busy %d)\n"
       s.P.st_served s.P.st_evaluated s.P.st_coalesced s.P.st_memo_hits
       s.P.st_busy);
  Buffer.add_string b
    (Printf.sprintf "driver cache: %d hits, %d misses; queue %d/%d\n"
       s.P.st_cache_hits s.P.st_cache_misses s.P.st_queue_depth
       s.P.st_queue_max);
  Buffer.add_string b
    (Printf.sprintf "in flight %d%s; cancelled %d, shed %d\n" s.P.st_inflight
       (match s.P.st_running with
       | [] -> ""
       | running ->
           Printf.sprintf " (%s)"
             (String.concat ", "
                (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) running)))
       s.P.st_cancelled s.P.st_shed);
  List.iter
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "  %-8s %4d requests, p50 %.1f ms, p99 %.1f ms\n"
           l.P.ls_kind l.P.ls_count l.P.ls_p50_ms l.P.ls_p99_ms))
    s.P.st_latency;
  Buffer.contents b
