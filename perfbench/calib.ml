(** Fixed reference computations that track the host's speed.

    The host the benchmark was built on (2 vCPUs) switches between
    speed states about 1.5x apart, within a run as well as between
    runs.  A reference is benchmark code, never library code, so a
    change to the program cannot move it.  Its work is {!work}: string
    hashing, map insertion, sorting and buffer appends, the
    allocation-heavy mix a compiler does.

    A measured stretch (one set-up; one pass over the compile pool; the
    whole serve-mix window) lies between two samples of a reference,
    taken while nothing else in the benchmark runs, and the times
    measured in it are scaled by {!factor} of those two samples.  Each
    workload uses the reference that follows it (README.md has the
    measurements):

    - {!single} for compile-mix: {!work} in the measuring thread, so it
      sees the CPU the measured code just ran on;
    - a {!pair} for serve-mix, whose work runs on both vCPUs at once
      and crosses a socket for every request: this process and a
      helper process each run {!work} per round, meeting over a socket
      pair. *)

module SMap = Map.Make (String)

let work () =
  let st = Random.State.make [| 7 |] in
  let h = Hashtbl.create 64 in
  let m = ref SMap.empty in
  for i = 0 to 2000 do
    let k = string_of_int (Random.State.int st 1_000_000) in
    Hashtbl.replace h k i;
    m := SMap.add k i !m
  done;
  let l = List.sort compare (List.init 2000 (fun i -> (i * 7919) mod 2003)) in
  let b = Buffer.create 1024 in
  List.iter (fun x -> Buffer.add_string b (string_of_int x)) l;
  Hashtbl.length h + SMap.cardinal !m + Buffer.length b

(** A reference: one sample (ms; the fastest of seven runs), and the
    sample's value on the host the figures are scaled to. *)
type t = { name : string; sample : unit -> float; reference_ms : float }

let fastest_of_seven (run : unit -> float) =
  let best = ref infinity in
  for _ = 1 to 7 do
    best := Float.min !best (run ())
  done;
  !best

(** {!work} once, in this thread.  1.2 ms is its time on the 2-vCPU
    host in its fast state. *)
let single =
  {
    name = "single-thread reference";
    sample = (fun () -> fastest_of_seven (fun () -> snd (Clock.timed work) *. 1000.));
    reference_ms = 1.2;
  }

(** The helper process of a two-CPU reference. *)
type pair = { fd : Unix.file_descr; helper : int }

(** Rounds per run of the two-CPU reference. *)
let rounds = 16

(** Fork the helper.  Call before any domain starts. *)
let start_pair () : pair =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close a;
      let buf = Bytes.create 1 in
      (try
         while Unix.read b buf 0 1 = 1 do
           ignore (work ());
           ignore (Unix.write b buf 0 1)
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close b;
      { fd = a; helper = pid }

(** Kill and reap the helper (a forked daemon may hold a copy of the
    socket, so closing ours would not end it). *)
let stop_pair (p : pair) =
  (try Unix.kill p.helper Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] p.helper);
  Unix.close p.fd

(** The two-CPU reference on [p], in ms per round.  2.5 ms is about its
    median on the 2-vCPU host, so scaled serve-mix figures stay close
    to the measured ones. *)
let of_pair (p : pair) =
  let buf = Bytes.make 1 'r' in
  let run () =
    let _, s =
      Clock.timed (fun () ->
          for _ = 1 to rounds do
            ignore (Unix.write p.fd buf 0 1);
            ignore (work ());
            ignore (Unix.read p.fd buf 0 1)
          done)
    in
    s *. 1000. /. float_of_int rounds
  in
  { name = "two-CPU reference"; sample = (fun () -> fastest_of_seven run); reference_ms = 2.5 }

(** Multiply a time measured between the samples [before] and [after]
    by this (divide a rate by it) to express it on the host where the
    reference takes [r.reference_ms]. *)
let factor (r : t) ~before ~after = r.reference_ms /. ((before +. after) /. 2.)

(** The range of the factors a run used, for its log. *)
let describe (r : t) (factors : float list) =
  match factors with
  | [] -> "no stretches"
  | f :: _ ->
      let lo = List.fold_left Float.min f factors and hi = List.fold_left Float.max f factors in
      Printf.sprintf
        "%d stretches, factors %.3f-%.3f (median %.3f) to a host where the %s takes %.1f ms"
        (List.length factors) lo hi (Stats.median factors) r.name r.reference_ms
