(** Deterministic pseudo-random streams for the differential tester.

    A splitmix64 generator: tiny, fast, and — unlike [Random] — with an
    explicit state we can derive per test case.  Each case gets an
    independent stream computed from [(seed, index)], so a batch
    produces identical cases regardless of [--jobs] or the order the
    worker pool happens to pick them up in. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

(** The stream for case [index] of run [seed]; independent of every
    other case's stream. *)
let case ~seed ~index =
  {
    state =
      mix
        (Int64.add
           (mix (Int64.of_int seed))
           (Int64.mul golden (Int64.of_int (index + 1))));
  }

(** 62 uniformly random non-negative bits. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(** Uniform in [\[0, n)]; [n] must be positive. *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let bool t = Int64.logand (next t) 1L = 1L
let pick t arr = arr.(int t (Array.length arr))

(** A full-width random i32, normalized to the signed range. *)
let i32 t = Support.Int_sem.norm ~width:32 (bits t land 0xFFFFFFFF)
