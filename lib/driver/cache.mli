(** Persistent content-addressed result cache: raw strings filed under
    the hex digest of a caller-hashed identity.  Writes are atomic
    (temp file + rename); hit/miss counters are atomics, so concurrent
    workers can share one cache. *)

type t

val create : dir:string -> t

(** Content address for an identity: the parts are hashed with an
    unambiguous separator (no concatenation collisions). *)
val key : string list -> string

(** Look an entry up; counts a hit or a miss.  Unreadable or torn
    entries are treated as misses. *)
val find : t -> string -> string option

(** {!find} followed by a decoder: an entry the decoder rejects counts
    as a miss, not a hit. *)
val find_decoded : t -> string -> (string -> 'a option) -> 'a option

(** Store an entry atomically.  Concurrent stores of one key, from
    domains or processes, are benign: each writer has its own temp
    file and the last rename wins. *)
val store : t -> string -> string -> unit

val hits : t -> int
val misses : t -> int

(** Number of entries currently on disk. *)
val entry_count : t -> int
