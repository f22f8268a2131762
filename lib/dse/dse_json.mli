(** Versioned [dse.json] frontier export + schema validator.

    The file is deterministic for a given cache state — wall-clock
    never appears, so a [--jobs 4] export is byte-identical to a
    [--jobs 1] one. *)

val schema_version : int

(** Serialize an outcome.  [tool] is the driver's version string. *)
val to_json : tool:string -> Search.outcome -> string

val write_file : tool:string -> string -> Search.outcome -> unit

(** Schema check of a serialized export: it must parse as one JSON
    document with the current version, every header key and every
    frontier point key present with a value of the right type, and a
    non-empty frontier.  Errors name the key at fault. *)
val validate : string -> (unit, string) result

(** {!validate} on a file's contents. *)
val validate_file : string -> (unit, string) result
