(** The repository benchmark.  See README.md for the workloads, the
    metrics and the layer map.

    {v
    main.exe --workload compile-mix|serve-mix --seed N
             --seconds S --trace 0|1
    main.exe --self-test
    v}

    The last line of standard output is one JSON object
    [{"correct", "attempted", "failed", "metrics"}]: the end-to-end
    metrics with [--trace 0], the per-layer metrics with [--trace 1].
    Exit code 0 when every output passed its check, 1 when one did
    not, 2 on a usage error. *)

let workloads = [ "compile-mix"; "serve-mix" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self_test = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--self-test", Arg.Set self_test, " only run the injected-fault self-test");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let canary = Oracle.self_test () in
  if !self_test then (
    List.iter print_endline canary;
    print_endline
      (if canary = [] then
         "self-test: clean outputs pass; a perturbed output element and a \
          perturbed QoR field both fail the check"
       else "self-test FAILED");
    exit (if canary = [] then 0 else 1));
  if (not (List.mem !workload workloads)) || (!trace <> 0 && !trace <> 1) then (
    prerr_endline usage;
    exit 2);
  let dir = Filename.concat "_perfbench" (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir "_perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let cleanup () = Untraced.rm_rf dir in
  Printf.printf "workload %s, seed %d, %.0f s, %s run\n%!" !workload !seed !seconds
    (if !trace = 1 then "traced" else "untraced");
  let correct, attempted, failed, metrics =
    Fun.protect ~finally:cleanup (fun () ->
        if !trace = 0 then (
          let r =
            if !workload = "compile-mix" then Untraced.compile_mix ~seed:!seed ~seconds:!seconds
            else Untraced.serve_mix ~seed:!seed ~seconds:!seconds ~dir
          in
          Printf.printf "input digest  %s\noutput digest %s\n" r.Untraced.input_digest
            r.Untraced.output_digest;
          List.iter (Printf.printf "CHECK FAILED: %s\n") r.Untraced.problems;
          Stats.print_metrics ~title:"end-to-end metrics" r.Untraced.e2e;
          Stats.print_metrics ~title:("as named for " ^ !workload) r.Untraced.named;
          (r.Untraced.problems = [], r.Untraced.attempted, r.Untraced.failed, r.Untraced.e2e))
        else (
          let r = Traced.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~dir in
          List.iter (Printf.printf "CHECK FAILED: %s\n") r.Traced.problems;
          Stats.print_metrics ~title:"per-layer metrics" r.Traced.layers;
          (r.Traced.problems = [], r.Traced.attempted, r.Traced.failed, r.Traced.layers)))
  in
  List.iter (Printf.printf "CHECK FAILED: %s\n") canary;
  let correct = correct && canary = [] in
  Stats.print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
