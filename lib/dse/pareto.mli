(** Pareto archive over integer minimization objectives: an antichain
    under {!dominates} with deterministic, key-sorted {!frontier}. *)

type objectives = int array

(** [dominates a b]: [a] is no worse on every axis and strictly better
    on at least one.  Irreflexive and antisymmetric.
    @raise Invalid_argument on dimension mismatch. *)
val dominates : objectives -> objectives -> bool

type 'a entry = {
  e_key : string;  (** unique stable identity (canonical config label) *)
  e_obj : objectives;
  e_payload : 'a;
}

val entry : key:string -> obj:objectives -> 'a -> 'a entry

type 'a t

val empty : 'a t
val size : 'a t -> int

(** [insert t e] returns the updated archive and whether the frontier
    changed (false when [e] is dominated, exactly ties an archived
    entry's objectives, or its key is already present). *)
val insert : 'a t -> 'a entry -> 'a t * bool

(** Fold {!insert} over a list; the flag is true when any insert
    changed the frontier. *)
val insert_all : 'a t -> 'a entry list -> 'a t * bool

(** The frontier, sorted by entry key — a deterministic antichain. *)
val frontier : 'a t -> 'a entry list

(** True when no entry dominates another (law tests). *)
val is_antichain : 'a entry list -> bool
