(** The estimator's report vocabulary: report and loop-report
    records, the {!Rejected} error, QoR ordering keys, and array BRAM
    banks.  {!Backend.synthesize} produces a {!report} under either
    scheduling discipline; everything downstream reads this one
    shape. *)

type resources = { bram : int; dsp : int; ff : int; lut : int }

let res_add a b =
  { bram = a.bram + b.bram; dsp = a.dsp + b.dsp; ff = a.ff + b.ff; lut = a.lut + b.lut }

let res_zero = { bram = 0; dsp = 0; ff = 0; lut = 0 }

type loop_report = {
  label : string;  (** header block label *)
  depth : int;
  tripcount : int;
  unroll : int;
  pipelined : bool;
  target_ii : int option;
  achieved_ii : int option;
  rec_mii : int;
      (** static: recurrence-constrained MII; dynamic: token round-trip
          time on the dependence cycle *)
  res_mii : int;
  iteration_latency : int;
  total_latency : int;
  mem_accesses : (string * int) list;
}

type report = {
  top : string;
  clock_ns : float;
  latency : int;  (** total function latency, cycles *)
  interval : int;  (** function initiation interval *)
  loops : loop_report list;  (** outermost-first, layout order *)
  resources : resources;
  arrays : Directives.array_info list;
  warnings : string list;
}

(** The module is outside the HLS-readable subset (run the adaptor
    first).  The payload lists the reasons. *)
exception Rejected of string list

(** Stable comparable key over a report's quality-of-result numbers.
    Gives consumers (DSE, regression diffing) a total order that is
    independent of the report's non-QoR payload (loop list, warnings),
    so sorting and deduplication are deterministic across runs. *)
type qor_key = {
  qk_latency : int;
  qk_bram : int;
  qk_dsp : int;
  qk_ff : int;
  qk_lut : int;
}

let qor_key (r : report) : qor_key =
  {
    qk_latency = r.latency;
    qk_bram = r.resources.bram;
    qk_dsp = r.resources.dsp;
    qk_ff = r.resources.ff;
    qk_lut = r.resources.lut;
  }

(** Lexicographic: latency, then bram, dsp, ff, lut. *)
let qor_compare (a : qor_key) (b : qor_key) : int =
  compare
    (a.qk_latency, a.qk_bram, a.qk_dsp, a.qk_ff, a.qk_lut)
    (b.qk_latency, b.qk_bram, b.qk_dsp, b.qk_ff, b.qk_lut)

let qor_to_string (k : qor_key) : string =
  Printf.sprintf "lat=%d bram=%d dsp=%d ff=%d lut=%d" k.qk_latency k.qk_bram
    k.qk_dsp k.qk_ff k.qk_lut

(** The largest achieved II over the report's loops; 0 when no loop
    is pipelined. *)
let inner_ii (r : report) : int =
  List.fold_left
    (fun acc l -> match l.achieved_ii with Some ii -> max acc ii | None -> acc)
    0 r.loops

(** BRAM banks an array occupies after partitioning. *)
let bram_of_array (a : Directives.array_info) =
  let total_bits = Directives.total_elems a * a.Directives.elem_bits in
  let parts = max 1 a.Directives.partition_factor in
  if a.Directives.partition_kind = "complete" then 0
  else parts * max 1 ((total_bits / parts + 18431) / 18432)
