(** Minimal JSON: a value type, a deterministic printer, a
    recursive-descent parser and record codecs.

    This is the only JSON code in the tree: the serve protocol, the
    diagnostics and parallel-safety verdicts, the batch trace and the
    [dse.json] export all print through it, and the two exports are
    validated by parsing them back.  Object fields keep their insertion
    order, printing is deterministic (no hash-order leaks), floats
    round-trip via {!Float_lit}-style shortest forms, and parse failures
    are [Error] strings with a byte offset, never exceptions.

    A record codec is written once, as a table of fields (wire name,
    value codec, getter, lenient default); its encoder and decoder both
    come from that table, so the two directions cannot drift. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let float_to_string (f : float) =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Only the quote, the backslash and the C0 controls are escaped; every
   other byte, non-ASCII included, is copied as it is, one blit per run
   of such bytes. *)
let write_string buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      Buffer.add_char buf '\\';
      match c with
      | '"' | '\\' -> Buffer.add_char buf c
      | '\n' -> Buffer.add_char buf 'n'
      | '\t' -> Buffer.add_char buf 't'
      | '\r' -> Buffer.add_char buf 'r'
      | c -> Buffer.add_string buf (Printf.sprintf "u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s -> write_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (first :: rest) ->
      Buffer.add_char buf '{';
      write_member buf first;
      write_members buf rest

and write_member buf (k, v) =
  write_string buf k;
  Buffer.add_string buf ": ";
  write buf v

(* The members after an object's first, then its closing brace. *)
and write_members buf members =
  List.iter
    (fun m ->
      Buffer.add_string buf ", ";
      write_member buf m)
    members;
  Buffer.add_char buf '}'

let to_buffer = write
let members_to_buffer = write_members

let to_string (v : t) : string =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let to_lines ?(breaks = []) ~rows (v : t) : string =
  let buf = Buffer.create 4096 in
  (match v with
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then
            Buffer.add_string buf (if List.mem k breaks then ",\n " else ", ");
          write_string buf k;
          Buffer.add_string buf ": ";
          match v with
          | List xs when List.mem k rows ->
              Buffer.add_char buf '[';
              List.iteri
                (fun i x ->
                  Buffer.add_string buf (if i > 0 then ",\n  " else "\n  ");
                  write buf x)
                xs;
              Buffer.add_string buf (if xs = [] then "\n\n]" else "\n]")
          | v -> write buf v)
        fields;
      Buffer.add_char buf '}'
  | v -> write buf v);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let parse (src : string) : (t, string) result =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.sub src !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub src !pos 4 in
    let hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* The code point of a [\u] escape whose [u] was just read.  A high
     surrogate must be followed by a [\u] low surrogate, and the pair
     is one code point; an unpaired surrogate is an error. *)
  let code_point () =
    let hi = hex4 () in
    if hi land 0xF800 <> 0xD800 then hi
    else if
      hi < 0xDC00 && !pos + 2 <= n && src.[!pos] = '\\' && src.[!pos + 1] = 'u'
    then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail "unpaired surrogate"
  in
  (* The escape whose backslash was just read, appended to [buf]. *)
  let unescape buf =
    if !pos >= n then fail "unterminated escape";
    let e = src.[!pos] in
    advance ();
    match e with
    | '"' | '\\' | '/' -> Buffer.add_char buf e
    | 'n' -> Buffer.add_char buf '\n'
    | 't' -> Buffer.add_char buf '\t'
    | 'r' -> Buffer.add_char buf '\r'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point ()))
    | _ -> fail "bad escape"
  in
  (* The index of the next quote or backslash at or after [i]; every
     other byte, raw control bytes included, belongs to the string. *)
  let rec run_end i =
    if i >= n then begin
      pos := n;
      fail "unterminated string"
    end
    else
      match String.unsafe_get src i with
      | '"' | '\\' -> i
      | _ -> run_end (i + 1)
  in
  (* A string without escapes is one [String.sub]; otherwise the runs
     between escapes are blitted into a buffer. *)
  let parse_string () =
    expect '"';
    let rec go buf =
      let start = !pos in
      let stop = run_end start in
      pos := stop + 1;
      match (src.[stop], buf) with
      | '"', None -> String.sub src start (stop - start)
      | c, _ ->
          let b = match buf with Some b -> b | None -> Buffer.create 256 in
          Buffer.add_substring b src start (stop - start);
          if c = '"' then Buffer.contents b
          else begin
            unescape b;
            go (Some b)
          end
    in
    go None
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char src.[!pos] do
      advance ()
    done;
    let text = String.sub src start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number '%s'" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member (k : string) = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None

let str_member k v = Option.bind (member k v) to_str
let float_member k v = Option.bind (member k v) to_float
let list_member k v = Option.bind (member k v) to_list

(* ------------------------------------------------------------------ *)
(* Codecs                                                             *)
(* ------------------------------------------------------------------ *)

type 'a codec = { enc : 'a -> t; dec : t -> ('a, string) result }

let scalar what enc get =
  { enc; dec = (fun v -> Option.to_result ~none:("expected " ^ what) (get v)) }

let int = scalar "an integer" (fun i -> Int i) to_int
let float = scalar "a number" (fun f -> Float f) to_float
let bool = scalar "a boolean" (fun b -> Bool b) to_bool
let string = scalar "a string" (fun s -> Str s) to_str

let option c =
  {
    enc = (function None -> Null | Some x -> c.enc x);
    dec = (function Null -> Ok None | v -> Result.map Option.some (c.dec v));
  }

let list c =
  let rec items i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match c.dec x with
        | Ok y -> items (i + 1) (y :: acc) rest
        | Error e -> Error (Printf.sprintf "item %d: %s" i e))
  in
  {
    enc = (fun xs -> List (List.map c.enc xs));
    dec = (function List xs -> items 0 [] xs | _ -> Error "expected a list");
  }

let enum name values =
  let find s =
    Option.to_result
      ~none:(Printf.sprintf "unknown value '%s'" s)
      (List.find_opt (fun x -> name x = s) values)
  in
  {
    enc = (fun x -> Str (name x));
    dec = (fun v -> Result.bind (string.dec v) find);
  }

let schema n =
  let check got =
    if got = n then Ok ()
    else Error (Printf.sprintf "unsupported schema version %d (want %d)" got n)
  in
  { enc = (fun () -> Int n); dec = (fun v -> Result.bind (int.dec v) check) }

let fields c x =
  match c.enc x with
  | Obj members -> members
  | _ -> invalid_arg "Json.fields: the codec does not encode an object"

(* A record table under construction.  [put] holds one member printer
   per field, last field first, each consing its member onto the ones
   after it; [take] decodes the fields in table order and applies the
   constructor, so the first bad field is the one reported. *)
type ('r, 'k) table = {
  put : ('r -> (string * t) list -> (string * t) list) list;
  take : t -> ('k, string) result;
}

let record k = { put = []; take = (fun _ -> Ok k) }

let field name c ?default ?(elide = false) get tbl =
  let put r after =
    let x = get r in
    if elide && Some x = default then after
    else (name, c.enc x) :: after
  in
  let take_one j =
    match (member name j, default) with
    | (None | Some Null), Some d -> Ok d
    | (None | Some Null), None ->
        Error (Printf.sprintf "missing field '%s'" name)
    | Some v, _ ->
        Result.map_error (Printf.sprintf "field '%s': %s" name) (c.dec v)
  in
  {
    put = put :: tbl.put;
    take =
      (fun j ->
        match tbl.take j with
        | Ok k -> Result.map k (take_one j)
        | Error e -> Error e);
  }

let opt name c get tbl = field name (option c) ~default:None get tbl

let inline c get tbl =
  {
    put = (fun r after -> fields c (get r) @ after) :: tbl.put;
    take =
      (fun j ->
        match tbl.take j with
        | Ok k -> Result.map k (c.dec j)
        | Error e -> Error e);
  }

let seal tbl =
  {
    enc =
      (fun r -> Obj (List.fold_left (fun after put -> put r after) [] tbl.put));
    dec =
      (function Obj _ as j -> tbl.take j | _ -> Error "expected an object");
  }

type 'v case =
  | Case : string * 'a codec * ('a -> 'v) * ('v -> 'a option) -> 'v case

let case name c inj proj = Case (name, c, inj, proj)

let const name v =
  let unit = { enc = (fun () -> Obj []); dec = (fun _ -> Ok ()) } in
  Case (name, unit, (fun () -> v), fun x -> if x = v then Some () else None)

let tag cases v =
  let holds (Case (_, _, _, proj)) = Option.is_some (proj v) in
  match List.find_opt holds cases with
  | Some (Case (name, _, _, _)) -> name
  | None -> invalid_arg "Json.tag: no case matches"

let tagged ?body key cases =
  let nest (Case (name, c, inj, proj)) =
    match body with
    | None -> Case (name, c, inj, proj)
    | Some b -> Case (name, seal (field b c Fun.id (record Fun.id)), inj, proj)
  in
  let cases = List.map nest cases in
  let rec enc v = function
    | [] -> invalid_arg "Json.tagged: no case matches"
    | Case (name, c, _, proj) :: rest -> (
        match proj v with
        | Some x -> Obj ((key, Str name) :: fields c x)
        | None -> enc v rest)
  in
  let dec j =
    match str_member key j with
    | None -> Error (Printf.sprintf "missing field '%s'" key)
    | Some name -> (
        match List.find_opt (fun (Case (n, _, _, _)) -> n = name) cases with
        | Some (Case (_, c, inj, _)) -> Result.map inj (c.dec j)
        | None -> Error (Printf.sprintf "unknown %s '%s'" key name))
  in
  { enc = (fun v -> enc v cases); dec }
