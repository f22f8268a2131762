(** Blocking client for the serve protocol — the library behind
    [mhlsc client], the CI smoke test and the serve test suite.

    One connection carries any number of requests; ids are assigned
    here and responses are matched back by id, so {!pipeline} can put
    several requests on the wire in a single write (which also
    guarantees the server sees them in one intake wave — the
    deterministic way to exercise coalescing). *)

module P = Protocol

type t = { fd : Unix.file_descr; mutable next_id : int }

let ( let* ) = Result.bind

(** Connect, retrying for [retry_for] seconds while the endpoint does
    not accept yet — covers the daemon-still-starting window. *)
let connect ?(retry_for = 0.0) (addr : Unix.sockaddr) : (t, string) result =
  let domain = Unix.domain_of_sockaddr addr in
  let deadline = Support.Tracing.now () +. retry_for in
  let rec go () =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok { fd; next_id = 1 }
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Support.Tracing.now () < deadline then begin
          Unix.sleepf 0.05;
          go ()
        end
        else Error (Unix.error_message e)
  in
  go ()

let connect_unix ?retry_for (path : string) : (t, string) result =
  connect ?retry_for (Unix.ADDR_UNIX path)

let connect_tcp ?retry_for ~(port : int) () : (t, string) result =
  connect ?retry_for (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let close (c : t) = try Unix.close c.fd with Unix.Unix_error _ -> ()

let fresh_id (c : t) =
  let id = c.next_id in
  c.next_id <- id + 1;
  id

(** Read until every id in [want] has a response; events are forwarded
    to [on_event].  Replies come back in the order of [want]. *)
let collect ?(on_event = fun (_ : P.event) -> ()) (c : t) (want : int list) :
    ((int * P.reply) list, string) result =
  let outstanding = Hashtbl.create 4 in
  List.iter (fun id -> Hashtbl.replace outstanding id ()) want;
  let replies = Hashtbl.create 4 in
  let rec go () =
    if Hashtbl.length outstanding = 0 then
      Ok (List.map (fun id -> (id, Hashtbl.find replies id)) want)
    else
      let* frame = P.read_frame c.fd in
      match frame with
      | P.Event ev ->
          on_event ev;
          go ()
      | P.Response { r_id; r_reply } when r_id = P.sentinel_id ->
          (* Connection-level error: the server could not attribute a
             failure to any request id (malformed frame on this
             connection).  No reply we are waiting for is coming. *)
          Error
            (match r_reply with
            | P.Failed (d :: _) -> String.trim (Support.Diag.render [ d ])
            | P.Failed [] | P.Done _ | P.Busy _ ->
                "server reported a connection-level protocol error")
      | P.Response { r_id; r_reply } ->
          if Hashtbl.mem outstanding r_id then begin
            Hashtbl.remove outstanding r_id;
            Hashtbl.replace replies r_id r_reply
          end;
          go ()
      | P.Request _ -> Error "server sent a request frame"
  in
  go ()

(** One request, one reply.  [stream] additionally subscribes to pass
    events, delivered to [on_event] before the reply. *)
let request ?(stream = false) ?on_event (c : t) (req : P.request) :
    (P.reply, string) result =
  let id = fresh_id c in
  (try P.write_frame c.fd (P.Request { q_id = id; q_stream = stream; q_req = req })
   with Unix.Unix_error (e, _, _) -> raise (Failure (Unix.error_message e)));
  let* rs = collect ?on_event c [ id ] in
  match rs with [ (_, r) ] -> Ok r | _ -> Error "missing reply"

(** Put all requests on the wire in one [write], then collect every
    reply (returned in request order).  Because the frames travel in
    one segment, the server reads them in a single intake wave — so
    identical requests in [reqs] are guaranteed to coalesce. *)
let pipeline (c : t) (reqs : P.request list) :
    (P.reply list, string) result =
  let ids = List.map (fun _ -> fresh_id c) reqs in
  (try
     P.write_frames c.fd
       (List.map2
          (fun id req -> P.Request { q_id = id; q_stream = false; q_req = req })
          ids reqs)
   with Unix.Unix_error (e, _, _) -> raise (Failure (Unix.error_message e)));
  let* rs = collect c ids in
  Ok (List.map snd rs)
