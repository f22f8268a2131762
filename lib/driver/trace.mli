(** Batch-level pass traces: the {!Support.Tracing} events of a batch,
    each tagged with its job's identity and cache flag, emitted as
    versioned JSON plus an aggregate summary table. *)

(** One trace-file line: an event plus what the file adds to it. *)
type record = {
  tr_job : string;  (** job label the pass ran under *)
  tr_kernel : string;
  tr_flow : string;  (** {!Flow.flow_name} *)
  tr_cached : bool;  (** served from the result cache, not re-run *)
  tr_event : Support.Tracing.event;
}

val schema_version : int

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
