(** Blocking client for the serve protocol — the library behind
    [mhlsc client], the CI smoke test and the serve test suite.

    A response carrying {!Protocol.sentinel_id} is a connection-level
    protocol failure (the server could not attribute it to any request
    id); {!request} and {!pipeline} surface it as [Error] rather than
    waiting forever for replies that will never come. *)

type t

(** Connect to a Unix-domain endpoint, retrying for [retry_for]
    seconds while the daemon is still starting. *)
val connect_unix : ?retry_for:float -> string -> (t, string) result

(** Connect to the loopback TCP endpoint. *)
val connect_tcp : ?retry_for:float -> port:int -> unit -> (t, string) result

val close : t -> unit

(** One request, one reply.  [stream] additionally subscribes to pass
    events, delivered to [on_event] before the reply. *)
val request :
  ?stream:bool ->
  ?on_event:(Protocol.event -> unit) ->
  t ->
  Protocol.request ->
  (Protocol.reply, string) result

(** Put all requests on the wire in one write, then collect every
    reply (returned in request order).  Because the frames travel in
    one segment, the server reads them in a single intake wave — so
    identical requests in the list are guaranteed to coalesce. *)
val pipeline :
  t ->
  Protocol.request list ->
  (Protocol.reply list, string) result
