(** Versioned [dse.json] frontier export + schema validator.

    Schema, version {!schema_version} — one top-level object:
    {v
    { "version": 1,
      "tool": "<tool version>",
      "kernel": "gemm",
      "space_size": 384,
      "evaluated": 42,
      "full_evals": 42,
      "cache_hits": 0,
      "stopped": "stable",
      "rounds": [
        { "round": 1, "candidates": 8, "frontier": 3 }, ... ],
      "frontier": [
        { "label": "middle-ii1-u1-A4-B4", "strategy": <strategy>,
          "ii": 1, "unroll": 1,
          "partitions": [ { "array": "A", "dim": 2, "factor": 4 }, ... ],
          "latency": 310, "bram": 8, "dsp": 20, "ff": 1480,
          "lut": 2210 }, ... ] }
    v}

    Frontier points estimated by the dynamic backend additionally
    carry ["sched": "dynamic"] (after ["unroll"]); statically-scheduled
    points keep the historical shape, so a static-only export is
    byte-identical to pre-backend-axis versions of the tool.

    Everything in the file is deterministic for a given cache state —
    wall-clock never appears, so a [--jobs 4] export is byte-identical
    to a [--jobs 1] one.  The printer and {!validate} share one field
    table per record: the validator parses the text and decodes it with
    the tables the printer used.  The CLI validates what it just wrote,
    and CI asserts on that. *)

module E = Hls_backend.Estimate
module K = Workloads.Kernels
module Json = Support.Json

let schema_version = 1

(* The file's records as it spells them: {!to_json} fills them from a
   search outcome and {!validate} decodes them back. *)

type point = {
  label : string;
  strategy : K.strategy;
  ii : int;
  unroll : int;
  sched : Hls_backend.Backend.sched;
  partitions : (string * int * int) list;  (** array, dim, factor *)
  latency : int;
  bram : int;
  dsp : int;
  ff : int;
  lut : int;
}

type export = {
  tool : string;
  kernel : string;
  space_size : int;
  evaluated : int;
  full_evals : int;
  cache_hits : int;
  stopped : string;
  rounds : (int * int * int) list;  (** round, candidates, frontier size *)
  frontier : point list;
}

let partition =
  Json.(
    record (fun a d f -> (a, d, f))
    |> field "array" string (fun (a, _, _) -> a)
    |> field "dim" int (fun (_, d, _) -> d)
    |> field "factor" int (fun (_, _, f) -> f)
    |> seal)

let round =
  Json.(
    record (fun r c f -> (r, c, f))
    |> field "round" int (fun (r, _, _) -> r)
    |> field "candidates" int (fun (_, c, _) -> c)
    |> field "frontier" int (fun (_, _, f) -> f)
    |> seal)

let point =
  let strategy =
    Json.enum K.strategy_name K.all_strategies
  and sched =
    Json.enum Hls_backend.Backend.sched_name Hls_backend.Backend.all_scheds
  in
  Json.(
    record
      (fun label strategy ii unroll sched partitions latency bram dsp ff lut ->
        { label; strategy; ii; unroll; sched; partitions; latency; bram; dsp;
          ff; lut })
    |> field "label" string (fun p -> p.label)
    |> field "strategy" strategy (fun p -> p.strategy)
    |> field "ii" int (fun p -> p.ii)
    |> field "unroll" int (fun p -> p.unroll)
    (* left out for static points, so static exports keep their
       historical bytes *)
    |> field "sched" sched ~default:Hls_backend.Backend.Static ~elide:true
         (fun p -> p.sched)
    |> field "partitions" (list partition) (fun p -> p.partitions)
    |> field "latency" int (fun p -> p.latency)
    |> field "bram" int (fun p -> p.bram)
    |> field "dsp" int (fun p -> p.dsp)
    |> field "ff" int (fun p -> p.ff)
    |> field "lut" int (fun p -> p.lut)
    |> seal)

let export =
  Json.(
    record
      (fun () tool kernel space_size evaluated full_evals cache_hits stopped
           rounds frontier ->
        { tool; kernel; space_size; evaluated; full_evals; cache_hits;
          stopped; rounds; frontier })
    |> field "version" (schema schema_version) (fun _ -> ())
    |> field "tool" string (fun x -> x.tool)
    |> field "kernel" string (fun x -> x.kernel)
    |> field "space_size" int (fun x -> x.space_size)
    |> field "evaluated" int (fun x -> x.evaluated)
    |> field "full_evals" int (fun x -> x.full_evals)
    |> field "cache_hits" int (fun x -> x.cache_hits)
    |> field "stopped" string (fun x -> x.stopped)
    |> field "rounds" (list round) (fun x -> x.rounds)
    |> field "frontier" (list point) (fun x -> x.frontier)
    |> seal)

let of_outcome ~tool (o : Search.outcome) : export =
  let point (p : Search.point) =
    let c = Space.canonical p.Search.pt_config and r = p.Search.pt_report in
    {
      label = p.Search.pt_label;
      strategy = c.Space.c_strategy;
      ii = c.Space.c_ii;
      unroll = c.Space.c_unroll;
      sched = c.Space.c_sched;
      partitions =
        List.map
          (fun (arr, _kind, factor, dim) -> (arr, dim, factor))
          p.Search.pt_directives.K.partitions;
      latency = r.E.latency;
      bram = r.E.resources.E.bram;
      dsp = r.E.resources.E.dsp;
      ff = r.E.resources.E.ff;
      lut = r.E.resources.E.lut;
    }
  in
  {
    tool;
    kernel = o.Search.o_kernel;
    space_size = Space.size o.Search.o_space;
    evaluated = o.Search.o_evaluated;
    full_evals = o.Search.o_full_evals;
    cache_hits = o.Search.o_cache_hits;
    stopped = Search.stop_reason_name o.Search.o_stopped;
    rounds =
      List.map
        (fun (rs : Search.round_stat) ->
          (rs.Search.rs_round, rs.Search.rs_candidates, rs.Search.rs_frontier))
        o.Search.o_rounds;
    frontier = List.map point o.Search.o_frontier;
  }

(** Serialize an outcome.  [tool] is the driver's version string. *)
let to_json ~(tool : string) (o : Search.outcome) : string =
  Json.to_lines ~breaks:[ "kernel"; "rounds"; "frontier" ] ~rows:[ "frontier" ]
    (export.enc (of_outcome ~tool o))

let write_file ~tool path (o : Search.outcome) : unit =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json ~tool o))

(** Schema check of a serialized export: it must decode with the
    printer's own tables.  An empty frontier is an error — the search
    always finds at least the baseline unless every config is
    infeasible, and then the export should not be trusted. *)
let validate (json : string) : (unit, string) result =
  match Result.bind (Json.parse json) export.dec with
  | Error e -> Error e
  | Ok { frontier = []; _ } -> Error "frontier is empty"
  | Ok _ -> Ok ()

let validate_file (path : string) : (unit, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | json -> validate json
  | exception Sys_error e -> Error e
