(** The estimator's report vocabulary: report and loop-report
    records, the {!Rejected} error, and array BRAM banks.
    {!Backend.synthesize} produces a {!report} under either scheduling
    discipline; everything downstream reads this one shape. *)

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
