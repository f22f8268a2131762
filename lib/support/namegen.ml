(** Fresh-name generation for SSA values, labels and symbols.

    A generator remembers every name it has handed out (and every name
    registered from pre-existing IR) so freshness is global within one
    function or module being rewritten. *)

type t = {
  mutable counter : int;
  used : (string, unit) Hashtbl.t;
  mutable seed : ((string -> unit) -> unit) option;
      (** the pre-existing IR's names, not reserved yet *)
  taken : string -> bool;  (** the pre-existing IR's names, asked one by one *)
}

(** The names of the IR being rewritten come either as [seed], which
    iterates them and is reserved on the generator's first use (so a
    pass that never asks for a name never walks them), or as [taken],
    which answers for one name at a time (so nothing is walked). *)
let create ?seed ?(taken = fun _ -> false) () =
  { counter = 0; used = Hashtbl.create 64; seed; taken }

(* The reserved set, with the seed's names in it. *)
let used t =
  (match t.seed with
  | Some seed ->
      t.seed <- None;
      seed (fun name -> Hashtbl.replace t.used name ())
  | None -> ());
  t.used

(** Mark [name] as taken without generating anything. *)
let reserve t name = Hashtbl.replace (used t) name ()

let is_used t name = t.taken name || Hashtbl.mem (used t) name

(** [fresh t base] returns [base] if free, otherwise [base ^ string_of_int k]
    for the first free [k]. The result is reserved. *)
let fresh t base =
  let pick name = reserve t name; name in
  if not (is_used t base) then pick base
  else
    let rec go () =
      let candidate = base ^ string_of_int t.counter in
      t.counter <- t.counter + 1;
      if is_used t candidate then go () else pick candidate
    in
    go ()
