(** Operation attributes — compile-time constants attached to ops,
    mirroring MLIR's attribute dictionary. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Type of Types.ty
  | Map of Affine_map.t
  | List of t list

let rec to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%h" f
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s
  | Type t -> Types.to_string t
  | Map m -> Affine_map.to_string m
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"

(* Typed accessors: raise [Invalid_argument] on kind mismatch so dialect
   verifiers surface malformed attributes early. *)

let as_int = function Int i -> i | a -> invalid_arg ("Attr.as_int: " ^ to_string a)
let as_float = function Float f -> f | Int i -> float_of_int i | a -> invalid_arg ("Attr.as_float: " ^ to_string a)
let as_str = function Str s -> s | a -> invalid_arg ("Attr.as_str: " ^ to_string a)
let as_map = function Map m -> m | a -> invalid_arg ("Attr.as_map: " ^ to_string a)

(** Lookup in an attribute dictionary. *)
let find attrs key = List.assoc_opt key attrs

let find_exn attrs key =
  match find attrs key with
  | Some a -> a
  | None -> invalid_arg ("Attr.find_exn: missing attribute " ^ key)

let set attrs key v = (key, v) :: List.remove_assoc key attrs
