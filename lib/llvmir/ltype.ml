(** LLVM IR type system (the subset the HLS stack exercises).

    Pointers come in two flavours mirroring the LLVM 14+ / LLVM 7 split
    that motivates the paper's adaptor:
    - [Ptr None] — an {e opaque} pointer ([ptr]), produced by modern
      MLIR lowering;
    - [Ptr (Some t)] — a {e typed} pointer ([t*]), the only form the
      Vitis-era middle-end accepts.  The adaptor's
      typed-pointer-reconstruction pass rewrites the former into the
      latter. *)

type t =
  | Void
  | I1
  | I8
  | I16
  | I32
  | I64
  | Float
  | Double
  | Ptr of t option  (** [None] = opaque pointer *)
  | Array of int * t
  | Struct of t list  (** literal struct *)

let ptr t = Ptr (Some t)
let opaque_ptr = Ptr None

let is_int = function I1 | I8 | I16 | I32 | I64 -> true | _ -> false
let is_float = function Float | Double -> true | _ -> false
let is_pointer = function Ptr _ -> true | _ -> false
let is_opaque_pointer = function Ptr None -> true | _ -> false
let is_aggregate = function Array _ | Struct _ -> true | _ -> false

let int_width = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | _ -> invalid_arg "Ltype.int_width: not an integer type"

(** Byte size under the default data layout (pointers are 8 bytes). *)
let rec sizeof = function
  | Void -> 0
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 | Float -> 4
  | I64 | Double | Ptr _ -> 8
  | Array (n, t) -> n * sizeof t
  | Struct fields ->
      (* naturally aligned, padded layout *)
      let align = alignment (Struct fields) in
      let off =
        List.fold_left
          (fun off f ->
            let a = alignment f in
            let off = (off + a - 1) / a * a in
            off + sizeof f)
          0 fields
      in
      (off + align - 1) / align * align

and alignment = function
  | Void -> 1
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 | Float -> 4
  | I64 | Double | Ptr _ -> 8
  | Array (_, t) -> alignment t
  | Struct fields ->
      List.fold_left (fun a f -> max a (alignment f)) 1 fields

(** Byte offset of struct field [i]. *)
let struct_offset fields i =
  let rec go off k = function
    | [] -> invalid_arg "Ltype.struct_offset: field index out of range"
    | f :: tl ->
        let a = alignment f in
        let off = (off + a - 1) / a * a in
        if k = i then off else go (off + sizeof f) (k + 1) tl
  in
  go 0 0 fields

let rec to_string = function
  | Void -> "void"
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | Float -> "float"
  | Double -> "double"
  | Ptr None -> "ptr"
  | Ptr (Some t) -> to_string t ^ "*"
  | Array (n, t) -> Printf.sprintf "[%d x %s]" n (to_string t)
  | Struct fields ->
      "{ " ^ String.concat ", " (List.map to_string fields) ^ " }"

let equal (a : t) (b : t) = a = b

(** Element type reached by indexing [ty] with one more (non-leading)
    GEP index. *)
let gep_step ty idx_const =
  match ty with
  | Array (_, t) -> t
  | Struct fields -> (
      match idx_const with
      | Some i when i >= 0 && i < List.length fields -> List.nth fields i
      | _ -> invalid_arg "Ltype.gep_step: struct index must be constant/in-range")
  | _ -> invalid_arg ("Ltype.gep_step: cannot index into " ^ to_string ty)

(** Element type reached by one index of an [extractvalue] or
    [insertvalue] path.  Unlike a GEP index, an array index must lie
    inside the array. *)
let agg_step ty i =
  match ty with
  | Array (n, _) when i < 0 || i >= n ->
      invalid_arg "Ltype.agg_step: array index out of range"
  | _ -> gep_step ty (Some i)
