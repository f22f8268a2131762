(** Affine expressions over dimension and symbol variables, mirroring
    [mlir::AffineExpr].

    Expressions are kept in a lightly-normalized form by the smart
    constructors ([add], [mul], ...): constants fold, [x + 0] and
    [x * 1] simplify, and sums of constants gravitate right.  Full
    canonicalization is not required for correctness — evaluation and
    flattening drive everything downstream. *)

type t =
  | Dim of int  (** [d0], [d1], ... — bound by the enclosing map *)
  | Sym of int  (** [s0], [s1], ... — map symbols *)
  | Const of int
  | Add of t * t
  | Mul of t * t
  | Mod of t * t  (** Euclidean modulo, rhs must be a positive constant *)
  | FloorDiv of t * t
  | CeilDiv of t * t

let dim i = Dim i
let sym i = Sym i
let const c = Const c

let rec add a b =
  match (a, b) with
  | Const 0, x | x, Const 0 -> x
  | Const x, Const y -> Const (x + y)
  | Add (x, Const c1), Const c2 -> add x (Const (c1 + c2))
  | Const _, x -> Add (x, a)
  | _ -> Add (a, b)

let mul a b =
  match (a, b) with
  | Const 0, _ | _, Const 0 -> Const 0
  | Const 1, x | x, Const 1 -> x
  | Const x, Const y -> Const (x * y)
  | Const _, x -> Mul (x, a)
  | _ -> Mul (a, b)

let sub a b = add a (mul b (Const (-1)))

let floordiv a b =
  match (a, b) with
  | _, Const 1 -> a
  | Const x, Const y when y > 0 ->
      Const (if x >= 0 then x / y else -(((-x) + y - 1) / y))
  | _ -> FloorDiv (a, b)

let ceildiv a b =
  match (a, b) with
  | _, Const 1 -> a
  | Const x, Const y when y > 0 ->
      Const (if x >= 0 then (x + y - 1) / y else -((-x) / y))
  | _ -> CeilDiv (a, b)

let modulo a b =
  match (a, b) with
  | _, Const 1 -> Const 0
  | Const x, Const y when y > 0 ->
      let r = x mod y in
      Const (if r < 0 then r + y else r)
  | _ -> Mod (a, b)

(** Evaluate with concrete dimension and symbol values. *)
let rec eval ~dims ~syms = function
  | Dim i ->
      if i >= Array.length dims then
        invalid_arg "Affine_expr.eval: dim out of range"
      else dims.(i)
  | Sym i ->
      if i >= Array.length syms then
        invalid_arg "Affine_expr.eval: sym out of range"
      else syms.(i)
  | Const c -> c
  | Add (a, b) -> eval ~dims ~syms a + eval ~dims ~syms b
  | Mul (a, b) -> eval ~dims ~syms a * eval ~dims ~syms b
  | Mod (a, b) ->
      let x = eval ~dims ~syms a and y = eval ~dims ~syms b in
      if y <= 0 then invalid_arg "Affine_expr.eval: mod by non-positive";
      let r = x mod y in
      if r < 0 then r + y else r
  | FloorDiv (a, b) ->
      let x = eval ~dims ~syms a and y = eval ~dims ~syms b in
      if y <= 0 then invalid_arg "Affine_expr.eval: floordiv by non-positive";
      if x >= 0 then x / y else -(((-x) + y - 1) / y)
  | CeilDiv (a, b) ->
      let x = eval ~dims ~syms a and y = eval ~dims ~syms b in
      if y <= 0 then invalid_arg "Affine_expr.eval: ceildiv by non-positive";
      if x >= 0 then (x + y - 1) / y else -((-x) / y)

(** Substitute expressions for dims and syms (map composition helper). *)
let rec substitute ~dims ~syms = function
  | Dim i -> dims.(i)
  | Sym i -> syms.(i)
  | Const c -> Const c
  | Add (a, b) -> add (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | Mul (a, b) -> mul (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | Mod (a, b) -> modulo (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | FloorDiv (a, b) ->
      floordiv (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | CeilDiv (a, b) ->
      ceildiv (substitute ~dims ~syms a) (substitute ~dims ~syms b)

let rec is_pure_affine = function
  | Dim _ | Sym _ | Const _ -> true
  | Add (a, b) -> is_pure_affine a && is_pure_affine b
  | Mul (a, b) -> (
      (is_pure_affine a && is_pure_affine b)
      &&
      match (a, b) with
      | Const _, _ | _, Const _ -> true
      | _ -> false)
  | Mod (a, b) | FloorDiv (a, b) | CeilDiv (a, b) -> (
      is_pure_affine a && match b with Const c -> c > 0 | _ -> false)

let rec max_dim = function
  | Dim i -> i + 1
  | Sym _ | Const _ -> 0
  | Add (a, b) | Mul (a, b) | Mod (a, b) | FloorDiv (a, b) | CeilDiv (a, b) ->
      max (max_dim a) (max_dim b)

let rec max_sym = function
  | Sym i -> i + 1
  | Dim _ | Const _ -> 0
  | Add (a, b) | Mul (a, b) | Mod (a, b) | FloorDiv (a, b) | CeilDiv (a, b) ->
      max (max_sym a) (max_sym b)

let rec to_string = function
  | Dim i -> "d" ^ string_of_int i
  | Sym i -> "s" ^ string_of_int i
  | Const c -> string_of_int c
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)
  | Mod (a, b) -> Printf.sprintf "(%s mod %s)" (to_string a) (to_string b)
  | FloorDiv (a, b) ->
      Printf.sprintf "(%s floordiv %s)" (to_string a) (to_string b)
  | CeilDiv (a, b) ->
      Printf.sprintf "(%s ceildiv %s)" (to_string a) (to_string b)
