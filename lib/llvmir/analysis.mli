(** LLVM-style analysis manager: function-level analyses computed at
    most once per (function, version), invalidated between passes
    according to each pass's declared preserve set.

    A cached result is returned only when it was computed for (or
    rebased onto) the {e physically identical} function value being
    queried, so stale analyses can never leak across an undeclared
    rewrite.  Queries report [stage:"analysis"] tracing events named
    ["<kind>:hit"] / ["<kind>:compute"]. *)

type kind = Findex | Cfg | Dominance | Loop_info | Effects

val kind_name : kind -> string

(** The manager.  One instance lives for one compile job: the flow
    driver creates it and hands it to every stage (verifier, cleanup
    pipeline, adaptor, estimator, lint), so an analysis one stage built
    is a hit for the next.  A stage entry point called without [?am]
    makes its own; below the stages every pass body and query takes
    [~am].  Consumers ask the manager instead of building a {!Findex},
    {!Cfg} or {!Loop_info} themselves; only this module and the
    analyses' own modules build them. *)
type t

val create : ?trace:Support.Tracing.hook -> unit -> t

(** Query front doors: the result is cached in [am] for exactly the
    queried function value. *)

val findex : am:t -> Lmodule.func -> Findex.t
val cfg : am:t -> Lmodule.func -> Cfg.t
val dominance : am:t -> Lmodule.func -> Dominance.t
val loop_info : am:t -> Lmodule.func -> Loop_info.t

(** Module-level {!Effects} summary, cached for exactly the queried
    module value.  Unlike the structural analyses, the preserve
    contract for [Effects] is {e conservative over-approximation}, not
    structural identity: a preserved summary may be strictly larger
    than one recomputed from the transformed module, and every
    consumer ({!Parsafe}, lint) treats it as may-information. *)
val effects : am:t -> Lmodule.t -> Effects.t

(** [keep am ~preserves m] — called after a pass returned [m]: rebase
    the preserved analyses onto the new function values, drop all
    others, and forget functions that disappeared.  Functions the pass
    left physically untouched keep their whole cache.  The module-
    level [Effects] summary is re-pointed at [m] when preserved and
    dropped otherwise. *)
val keep : t -> preserves:kind list -> Lmodule.t -> unit

(** [rewritten am f] — for a pass about to query analyses on [f], its
    own rewrite of the function of that name that kept the block
    skeleton (labels, order and terminator targets): the cached CFG,
    dominator tree and loop nest are rebased onto [f] and the rest
    dropped, as {!keep} does after a pass that preserves them.  Without
    it, the query would find a new value and drop them all. *)
val rewritten : t -> Lmodule.func -> unit

(** Incremental-verification bookkeeping, used by {!Lverifier}.
    [verified am f] is true only when the verifier accepted exactly
    the physical value [f] under this manager; any cache reset for the
    function's name (a new value seen by a query or {!keep}) clears
    the flag.  [note_signatures am m] records the callable-signature
    environment (functions and declarations) and returns whether it
    differs from the previously recorded one — the verifier re-checks
    call sites of otherwise-untouched functions exactly when it does. *)

val verified : t -> Lmodule.func -> bool
val mark_verified : t -> Lmodule.func -> unit
val note_signatures : t -> Lmodule.t -> bool
