(** Persistent content-addressed result cache.

    A dumb blob store: entries are raw strings filed under the hex
    digest of whatever identity the caller hashed ({!key}).  The driver
    keys entries by (input IR, pipeline description, directives, tool
    version), so any change to any ingredient lands on a different
    entry and stale results can never be served — invalidation is
    structural, not temporal.

    Writes go through a temporary file named after the writing process
    and domain, then an atomic [Sys.rename], so concurrent workers (or
    concurrent batch runs sharing a cache directory) never write one
    temporary file or observe torn entries.  Hit/miss counters are
    atomics for the same reason. *)

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755
     with Sys_error _ when Sys.file_exists dir -> () (* lost the race *))
  end

let create ~dir : t =
  mkdir_p dir;
  { dir; hits = Atomic.make 0; misses = Atomic.make 0 }

(** Content address for an identity: the parts are hashed with an
    unambiguous separator (no concatenation collisions). *)
let key (parts : string list) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (string_of_int (List.length parts)
          :: List.concat_map (fun p -> [ string_of_int (String.length p); p ])
               parts)))

let path t k = Filename.concat t.dir (k ^ ".cache")

(** Look an entry up and [decode] it; counts a hit, or a miss when the
    entry is unreadable or [decode] rejects it. *)
let find_decoded (t : t) (k : string) (decode : string -> 'a option) :
    'a option =
  let v =
    match In_channel.with_open_bin (path t k) In_channel.input_all with
    | data -> decode data
    | exception Sys_error _ -> None
  in
  Atomic.incr (if Option.is_some v then t.hits else t.misses);
  v

let find t k = find_decoded t k Option.some

(** Store an entry atomically (temp file + rename).  Concurrent stores
    of the same key are benign: each writer has its own temp file (pid
    and domain in the name), last rename wins, and both contents are
    valid by construction. *)
let store (t : t) (k : string) (data : string) : unit =
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".%s.tmp.%d.%d" k (Unix.getpid ())
         (Domain.self () :> int))
  in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data);
  Sys.rename tmp (path t k)

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

(** Number of entries currently on disk. *)
let entry_count (t : t) : int =
  match Sys.readdir t.dir with
  | files ->
      Array.fold_left
        (fun n f -> if Filename.check_suffix f ".cache" then n + 1 else n)
        0 files
  | exception Sys_error _ -> 0
