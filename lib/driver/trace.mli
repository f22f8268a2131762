(** Batch-level pass traces: per-job, per-pass records assembled from
    {!Support.Tracing} events, emitted as versioned JSON plus an
    aggregate summary table. *)

type record = {
  tr_job : string;  (** job label the pass ran under *)
  tr_kernel : string;
  tr_flow : string;  (** ["direct-ir"] | ["hls-cpp"] *)
  tr_stage : string;
  tr_pass : string;
  tr_seconds : float;
  tr_instrs_before : int;
  tr_instrs_after : int;
  tr_minor_words : float;  (** words allocated on the minor heap *)
  tr_major_words : float;  (** words allocated directly on the major heap *)
  tr_cached : bool;  (** served from the result cache, not re-run *)
}

val schema_version : int

val of_event :
  job:string ->
  kernel:string ->
  flow:string ->
  cached:bool ->
  Support.Tracing.event ->
  record

(** The record's JSON fields, in canonical schema order. *)
val record_fields : record -> (string * string) list

val to_json : tool:string -> record list -> string
val write_file : tool:string -> string -> record list -> unit

(** Schema check of a serialized trace: it must parse as one JSON
    document with the current version, a tool string and a non-empty
    records array whose every record carries every key with a value of
    the right type.  Errors name the key at fault. *)
val validate : string -> (unit, string) result

(** Per-(stage, pass) aggregate over a batch: run count, total/mean
    time, net IR delta. *)
val summary_table : record list -> string
