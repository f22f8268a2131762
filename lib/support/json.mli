(** Minimal JSON: the one printer, parser and record codec of the tree.
    Object fields keep insertion order; printing is deterministic;
    parsing never raises. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Deterministic single-line rendering ([", "]-separated, [": "]
    after keys).  Strings escape only the quote, the backslash and the
    control bytes below 0x20; every other byte is copied raw. *)
val to_string : t -> string

(** [to_buffer b v] appends [to_string v] to [b]. *)
val to_buffer : Buffer.t -> t -> unit

(** [members_to_buffer b ms] appends what {!to_buffer} prints of an
    object after its first member: [", "] and each member of [ms], then
    the closing brace.  A printer that wrote an object's head itself
    ends the object with it. *)
val members_to_buffer : Buffer.t -> (string * t) list -> unit

(** A file rendering of a top-level object: {!to_string}, except that a
    field named in [breaks] starts a new line (indented one space), and
    a list field named in [rows] puts each element on its own line
    (indented two spaces).  Ends with a newline. *)
val to_lines : ?breaks:string list -> rows:string list -> t -> string

(** Parse one JSON document; [Error] carries a byte offset and reason.
    Trailing non-whitespace is an error.  String bytes other than
    escapes are kept as they are; [\uXXXX] decodes to the UTF-8 bytes
    of the code point, a surrogate pair to one four-byte sequence, and
    an unpaired surrogate is an error. *)
val parse : string -> (t, string) result

(** [member k v] is field [k] of object [v], if any. *)
val member : string -> t -> t option

val to_str : t -> string option
val to_int : t -> int option

(** Accepts both [Int] and [Float]. *)
val to_float : t -> float option

val to_bool : t -> bool option
val to_list : t -> t list option

(** [Option.bind (member k v)] over the matching accessor. *)
val str_member : string -> t -> string option

val float_member : string -> t -> float option
val list_member : string -> t -> t list option

(** {1 Codecs}

    A codec carries one OCaml type to JSON and back.  Decoding never
    raises; its errors name the field at fault. *)

type 'a codec = { enc : 'a -> t; dec : t -> ('a, string) result }

val int : int codec

(** Decodes [Int] as well as [Float]. *)
val float : float codec

val bool : bool codec
val string : string codec

(** [None] is [null]. *)
val option : 'a codec -> 'a option codec

val list : 'a codec -> 'a list codec

(** A closed set of values, each spelled as the string [name v]. *)
val enum : ('a -> string) -> 'a list -> 'a codec

(** A schema version stamp: encodes [n] and decodes nothing else. *)
val schema : int -> unit codec

(** The members of [c.enc x], which must be an object. *)
val fields : 'a codec -> 'a -> (string * t) list

(** {2 Records}

    A record codec is one field table, read top to bottom:
    {[
      record (fun name size -> { name; size })
      |> field "name" string (fun r -> r.name)
      |> field "size" int ~default:0 (fun r -> r.size)
      |> seal
    ]}
    encodes to [{"name": ..., "size": ...}] in table order, and decodes
    by applying the constructor to the fields in the same order.
    Members the table does not name are ignored. *)

(** A table for records ['r] whose constructor still expects ['k]. *)
type ('r, 'k) table

val record : 'k -> ('r, 'k) table

(** [field name c ?default get]: the member [name], read from the
    record with [get].  An absent or [null] member decodes to
    [default]; without one it is an error.  With [elide], a value equal
    to [default] is left out of the encoding. *)
val field :
  string ->
  'a codec ->
  ?default:'a ->
  ?elide:bool ->
  ('r -> 'a) ->
  ('r, 'a -> 'k) table ->
  ('r, 'k) table

(** [field name (option c) ~default:None]. *)
val opt :
  string ->
  'a codec ->
  ('r -> 'a option) ->
  ('r, 'a option -> 'k) table ->
  ('r, 'k) table

(** Splice the members of an object codec into this record, and decode
    it from the same object. *)
val inline : 'a codec -> ('r -> 'a) -> ('r, 'a -> 'k) table -> ('r, 'k) table

(** The finished table as a codec of JSON objects. *)
val seal : ('r, 'r) table -> 'r codec

(** {2 Variants} *)

(** One constructor of a variant ['v]: its tag, the codec of its
    argument (an object codec) and the injection and projection. *)
type 'v case

val case : string -> 'a codec -> ('a -> 'v) -> ('v -> 'a option) -> 'v case

(** A constant constructor: no members besides the tag. *)
val const : string -> 'v -> 'v case

(** The tag of the case that holds [v]. *)
val tag : 'v case list -> 'v -> string

(** [tagged key cases]: an object whose member [key] names the case,
    followed by the case's members — or, with [body], by one member
    [body] holding them. *)
val tagged : ?body:string -> string -> 'v case list -> 'v codec
