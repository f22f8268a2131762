(** Batch-level pass traces: the {!Support.Tracing} events of a batch,
    each tagged with its job's identity and cache flag when the trace
    file is written, emitted as JSON (one object per job per pass) plus
    an aggregate summary table.

    Trace schema, version {!schema_version} — one top-level object:
    {v
    { "version": 1,
      "tool": "<tool version>",
      "records": [
        { "job": "...", "kernel": "...", "flow": "...",
          "stage": "adaptor", "pass": "typed-pointers",
          "seconds": 0.000123, "instrs_before": 120,
          "instrs_after": 118, "minor_words": 20480,
          "major_words": 1024, "cached": false }, ... ] }
    v}
    Printing and {!validate} share one field table per record, so the
    validator checks exactly the schema the printer writes; the golden
    schema test and CI both rely on it. *)

module Ev = Support.Tracing

type record = {
  tr_job : string;  (** job label the pass ran under *)
  tr_kernel : string;
  tr_flow : string;  (** {!Flow.flow_name} *)
  tr_cached : bool;  (** served from the result cache, not re-run *)
  tr_event : Ev.event;
}

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

module Json = Support.Json

(* Allocation counters are whole words; they print as integers. *)
let words = { Json.float with enc = (fun w -> Json.Int (Float.to_int w)) }

let record_codec : record Json.codec =
  Json.(
    record
      (fun tr_job tr_kernel tr_flow ev_stage ev_pass ev_seconds
           ev_instrs_before ev_instrs_after ev_minor_words ev_major_words
           tr_cached ->
        { tr_job; tr_kernel; tr_flow; tr_cached;
          tr_event =
            { Ev.ev_stage; ev_pass; ev_seconds; ev_instrs_before;
              ev_instrs_after; ev_minor_words; ev_major_words } })
    |> field "job" string (fun r -> r.tr_job)
    |> field "kernel" string (fun r -> r.tr_kernel)
    |> field "flow" string (fun r -> r.tr_flow)
    |> field "stage" string (fun r -> r.tr_event.Ev.ev_stage)
    |> field "pass" string (fun r -> r.tr_event.Ev.ev_pass)
    |> field "seconds" float (fun r -> r.tr_event.Ev.ev_seconds)
    |> field "instrs_before" int (fun r -> r.tr_event.Ev.ev_instrs_before)
    |> field "instrs_after" int (fun r -> r.tr_event.Ev.ev_instrs_after)
    |> field "minor_words" words (fun r -> r.tr_event.Ev.ev_minor_words)
    |> field "major_words" words (fun r -> r.tr_event.Ev.ev_major_words)
    |> field "cached" bool (fun r -> r.tr_cached)
    |> seal)

(* The whole file: the version stamp, the tool and the records. *)
let document : (string * record list) Json.codec =
  Json.(
    record (fun () tool records -> (tool, records))
    |> field "version" (schema schema_version) (fun _ -> ())
    |> field "tool" string fst
    |> field "records" (list record_codec) snd
    |> seal)

let record_fields (r : record) : (string * string) list =
  List.map (fun (k, v) -> (k, Json.to_string v)) (Json.fields record_codec r)

let to_json ~(tool : string) (records : record list) : string =
  Json.to_lines ~rows:[ "records" ] (document.enc (tool, records))

let write_file ~tool path records =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json ~tool records))

(** Parse the text and decode it with the schema's own codec: every
    record must carry every key with a value of the right type, and
    there must be at least one record. *)
let validate (json : string) : (unit, string) result =
  match Result.bind (Json.parse json) document.dec with
  | Error e -> Error e
  | Ok (_, []) -> Error "trace has no records"
  | Ok _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Aggregate summary                                                  *)
(* ------------------------------------------------------------------ *)

(** Per-(stage, pass) aggregate over a batch: run count, total and mean
    time, and the net IR delta — the "where does compile time go and
    what does each pass actually do" table. *)
let summary_table (records : record list) : string =
  let tbl : (string * string, int * float * int) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun { tr_event = e; _ } ->
      let k = (e.Ev.ev_stage, e.Ev.ev_pass) in
      if not (Hashtbl.mem tbl k) then order := k :: !order;
      let n, secs, delta =
        Option.value ~default:(0, 0.0, 0) (Hashtbl.find_opt tbl k)
      in
      Hashtbl.replace tbl k
        ( n + 1,
          secs +. e.Ev.ev_seconds,
          delta + (e.Ev.ev_instrs_after - e.Ev.ev_instrs_before) ))
    records;
  let t =
    Support.Table.create
      ~aligns:
        [ Support.Table.Left; Support.Table.Left; Support.Table.Right;
          Support.Table.Right; Support.Table.Right; Support.Table.Right ]
      [ "stage"; "pass"; "runs"; "total (ms)"; "mean (ms)"; "IR delta" ]
  in
  List.iter
    (fun (stage, pass) ->
      let n, secs, delta = Hashtbl.find tbl (stage, pass) in
      Support.Table.add_row t
        [
          stage;
          pass;
          string_of_int n;
          Printf.sprintf "%.2f" (secs *. 1000.0);
          Printf.sprintf "%.3f" (secs *. 1000.0 /. float_of_int n);
          Printf.sprintf "%+d" delta;
        ])
    (List.rev !order);
  Support.Table.render t
