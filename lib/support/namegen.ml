(** Fresh-name generation for SSA values, labels and symbols.

    A generator remembers every name it has handed out (and every name
    registered from pre-existing IR) so freshness is global within one
    function or module being rewritten. *)

type t = {
  mutable counter : int;
  used : (string, unit) Hashtbl.t;
  mutable seed : ((string -> unit) -> unit) option;
      (** the pre-existing IR's names, not reserved yet *)
}

(** [seed] iterates the names of the IR being rewritten; they are
    reserved on the generator's first use, so a pass that never asks
    for a name never walks them. *)
let create ?seed () = { counter = 0; used = Hashtbl.create 64; seed }

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

let is_used t name = Hashtbl.mem (used t) name

(** [fresh t base] returns [base] if free, otherwise [base ^ string_of_int k]
    for the first free [k]. The result is reserved. *)
let fresh t base =
  let used = used t in
  if not (Hashtbl.mem used base) then begin
    Hashtbl.replace used base ();
    base
  end
  else
    let rec go () =
      let candidate = base ^ string_of_int t.counter in
      t.counter <- t.counter + 1;
      if Hashtbl.mem used candidate then go ()
      else begin
        Hashtbl.replace used candidate ();
        candidate
      end
    in
    go ()
