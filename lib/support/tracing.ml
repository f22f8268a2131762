(** Pass-level tracing hook — the observability seam of the compiler.

    Every staged driver ({!Llvmir.Pass.run_pipeline}, which also runs
    the adaptor, and the flows) can be handed a [hook]; after each pass
    it reports one {!event} carrying the pass identity, its wall time
    and the IR-size delta it caused.  The hook is deliberately dumb — a
    plain callback over a record of scalars — so this module needs no
    IR knowledge and every layer of the stack can depend on it.  Events
    are the only per-pass record: the batch driver ([Mhls_driver.Trace])
    writes them to JSON traces and summary tables, and the daemon
    streams them to clients.

    Every duration in the stack is read from {!now}, one monotonic wall
    clock: process CPU time over-counts while other domains run, and
    the time of day can step backwards. *)

(** Monotonic wall-clock seconds ([clock_gettime(CLOCK_MONOTONIC)]);
    only differences are meaningful. *)
let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type event = {
  ev_stage : string;
      (** coarse phase: ["mhir"], ["lower"], ["llvm-opt"], ["adaptor"],
          ["hls"], ... *)
  ev_pass : string;  (** pass name within the stage *)
  ev_seconds : float;  (** wall time spent in the pass ({!now}) *)
  ev_instrs_before : int;  (** IR size (instruction count) entering *)
  ev_instrs_after : int;  (** IR size leaving — delta = effect *)
  ev_minor_words : float;
      (** words this domain allocated on the minor heap during the pass
          ([Gc.counters] delta); [0.] when the reporter doesn't
          measure allocation *)
  ev_major_words : float;  (** words allocated directly on the major heap *)
}

type hook = event -> unit

(** The no-op hook: tracing disabled.  Reporters compare against it
    physically and, under it, build no event and measure nothing. *)
let null : hook = fun _ -> ()

let event ~stage ~pass ~seconds ~before ~after : event =
  {
    ev_stage = stage;
    ev_pass = pass;
    ev_seconds = seconds;
    ev_instrs_before = before;
    ev_instrs_after = after;
    ev_minor_words = 0.;
    ev_major_words = 0.;
  }

(** Attach allocation figures to an event (reporters that measure
    [Gc.counters] deltas around the pass). *)
let with_alloc ~minor_words ~major_words (e : event) : event =
  { e with ev_minor_words = minor_words; ev_major_words = major_words }

(** An accumulating hook: [collector ()] returns the hook and a
    function reading back everything recorded so far, in order. *)
let collector () : hook * (unit -> event list) =
  let events = ref [] in
  ((fun e -> events := e :: !events), fun () -> List.rev !events)
