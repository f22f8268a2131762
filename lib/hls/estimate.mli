(** The estimator's report vocabulary: what {!Backend.synthesize}
    returns under either scheduling discipline. *)

type resources = { bram : int; dsp : int; ff : int; lut : int }

val res_add : resources -> resources -> resources
val res_zero : resources

type loop_report = {
  label : string;
  depth : int;
  tripcount : int;
  unroll : int;
  pipelined : bool;
  target_ii : int option;
  achieved_ii : int option;
  rec_mii : int;
  res_mii : int;
  iteration_latency : int;
  total_latency : int;
  mem_accesses : (string * int) list;
}

type report = {
  top : string;
  clock_ns : float;
  latency : int;
  interval : int;
  loops : loop_report list;
  resources : resources;
  arrays : Directives.array_info list;
  warnings : string list;
}

(** The module is outside the HLS-readable subset.  The payload lists
    the reasons. *)
exception Rejected of string list

(** The largest achieved II over the report's loops; 0 when no loop
    is pipelined. *)
val inner_ii : report -> int

(** BRAM banks an array occupies after partitioning. *)
val bram_of_array : Directives.array_info -> int
