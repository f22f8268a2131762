(** Affine maps: [(d0, d1)[s0] -> (e0, e1, ...)], mirroring
    [mlir::AffineMap].  Used by [affine.for] bounds, [affine.load]/
    [affine.store] subscripts and [affine.apply]. *)

type t = {
  num_dims : int;
  num_syms : int;
  exprs : Affine_expr.t list;  (** one per result *)
}

let make ~num_dims ~num_syms exprs =
  List.iter
    (fun e ->
      if Affine_expr.max_dim e > num_dims then
        invalid_arg "Affine_map.make: expression uses out-of-range dim";
      if Affine_expr.max_sym e > num_syms then
        invalid_arg "Affine_map.make: expression uses out-of-range sym")
    exprs;
  { num_dims; num_syms; exprs }

(** The [n]-dimensional identity map [(d0, ..., dn-1) -> (d0, ..., dn-1)]. *)
let identity n =
  make ~num_dims:n ~num_syms:0 (List.init n (fun i -> Affine_expr.dim i))

(** A 0-input constant map [() -> (c)], the shape of constant loop bounds. *)
let constant c = make ~num_dims:0 ~num_syms:0 [ Affine_expr.const c ]

let num_results m = List.length m.exprs

let is_constant m =
  List.for_all (function Affine_expr.Const _ -> true | _ -> false) m.exprs

let as_constant m =
  match m.exprs with [ Affine_expr.Const c ] -> Some c | _ -> None

(** Evaluate all results given dim and symbol values. *)
let eval m ~dims ~syms =
  if Array.length dims <> m.num_dims then
    invalid_arg "Affine_map.eval: wrong number of dims";
  if Array.length syms <> m.num_syms then
    invalid_arg "Affine_map.eval: wrong number of syms";
  List.map (Affine_expr.eval ~dims ~syms) m.exprs

(** [compose f g] is the map applying [g] then [f]: the results of [g]
    become the dims of [f].  [g]'s symbols are appended after [f]'s. *)
let compose f g =
  if num_results g <> f.num_dims then
    invalid_arg "Affine_map.compose: arity mismatch";
  let dims = Array.of_list g.exprs in
  let syms = Array.init f.num_syms (fun i -> Affine_expr.sym i) in
  let exprs = List.map (Affine_expr.substitute ~dims ~syms) f.exprs in
  make ~num_dims:g.num_dims ~num_syms:(max f.num_syms g.num_syms) exprs

let to_string m =
  let dims = List.init m.num_dims (fun i -> "d" ^ string_of_int i) in
  let syms = List.init m.num_syms (fun i -> "s" ^ string_of_int i) in
  let symp = if syms = [] then "" else "[" ^ String.concat ", " syms ^ "]" in
  Printf.sprintf "affine_map<(%s)%s -> (%s)>"
    (String.concat ", " dims)
    symp
    (String.concat ", " (List.map Affine_expr.to_string m.exprs))

let equal (a : t) (b : t) = a = b
