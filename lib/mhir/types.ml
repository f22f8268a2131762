(** Type system of the multi-level IR (the MLIR analogue).

    Memrefs carry static shapes only: the adaptor paper targets
    statically-shaped HLS kernels, and Vitis requires static array
    bounds for BRAM mapping.  Dynamic dimensions are rejected at
    construction. *)

type ty =
  | I1
  | I32
  | I64
  | Index  (** platform-width integer used for loop induction / subscripts *)
  | F32
  | F64
  | Memref of int list * ty  (** static shape, element type *)

type fn_ty = { inputs : ty list; outputs : ty list }

let is_int = function I1 | I32 | I64 | Index -> true | _ -> false
let is_float = function F32 | F64 -> true | _ -> false
let is_memref = function Memref _ -> true | _ -> false

(** Bit-width of an integer type (Index counts as 64). *)
let int_width = function
  | I1 -> 1
  | I32 -> 32
  | I64 | Index -> 64
  | t -> invalid_arg "Types.int_width: not an integer type"
  [@@warning "-27"]

let memref shape =
  List.iter
    (fun d ->
      if d <= 0 then invalid_arg "Types.memref: dimensions must be static and positive")
    shape;
  Memref (shape, F32)

(** Number of scalar elements in a memref type. *)
let memref_size = function
  | Memref (shape, _) -> List.fold_left ( * ) 1 shape
  | _ -> invalid_arg "Types.memref_size"

let rec to_string = function
  | I1 -> "i1"
  | I32 -> "i32"
  | I64 -> "i64"
  | Index -> "index"
  | F32 -> "f32"
  | F64 -> "f64"
  | Memref (shape, elem) ->
      Printf.sprintf "memref<%sx%s>"
        (String.concat "x" (List.map string_of_int shape))
        (to_string elem)

let equal (a : ty) (b : ty) = a = b

let fn_to_string { inputs; outputs } =
  Printf.sprintf "(%s) -> (%s)"
    (String.concat ", " (List.map to_string inputs))
    (String.concat ", " (List.map to_string outputs))
