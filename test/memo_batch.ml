(** Helper for the driver tests: [memo_batch JOBS] runs direct-IR jobs
    over design points of gemm and mmcall, interleaved, on [JOBS]
    workers from this process's cold prefix memo, and prints the QoR
    table, then each job's report and adaptor report.  Last, after a
    line [events:], the stage, pass and size of each event (analysis
    queries left out) of a pipelined gemm job that asks for events:
    the batch memoized gemm's prefix without them. *)

module D = Mhls_driver.Driver
module Sp = Mhls_dse.Space
module K = Workloads.Kernels

let points = 8

let jobs_of name =
  let k = Option.get (K.by_name name) in
  let sp = Sp.of_kernel k in
  let all = Array.of_list (Sp.enumerate sp) in
  let len = Array.length all in
  List.init points (fun i ->
      let c = all.(i * (len - 1) / (points - 1)) in
      D.job ~label:(name ^ "/" ^ Sp.describe c) ~kernel:name (Sp.to_directives sp c))

let () =
  let jobs = int_of_string Sys.argv.(1) in
  let js = List.concat (List.map2 (fun a b -> [ a; b ]) (jobs_of "gemm") (jobs_of "mmcall")) in
  let b = D.run_batch ~jobs js in
  print_endline (D.render_qor b);
  List.iter
    (fun (o : D.outcome) ->
      print_endline o.D.o_job.D.label;
      (match o.D.o_qor with
      | Ok r -> print_string (Hls_backend.Report.render r)
      | Error _ -> print_endline "FAIL");
      print_string (Option.value ~default:"" o.D.o_adaptor))
    b.D.outcomes;
  print_endline "events:";
  let o =
    D.run_job ~events:true ~pipeline:Adaptor.Pipeline.default ~cache:None
      (D.job ~kernel:"gemm" K.pipelined)
  in
  List.iter
    (fun (e : Support.Tracing.event) ->
      if e.Support.Tracing.ev_stage <> "analysis" then
        Printf.printf "%s %s %d %d\n" e.Support.Tracing.ev_stage
          e.Support.Tracing.ev_pass e.Support.Tracing.ev_instrs_before
          e.Support.Tracing.ev_instrs_after)
    o.D.o_trace
