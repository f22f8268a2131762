(** The one clock every timing in the benchmark reads: bechamel's
    [clock_gettime(CLOCK_MONOTONIC)] stub.  [Sys.time] is process CPU
    time (it over-counts under domains) and [Unix.gettimeofday] is not
    monotonic, so neither is used for a measurement. *)

let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** [timed f] is [(f (), elapsed seconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
