(** The JSON string codec: [\u] decoding, and a differential test of
    the run-copying printer and string reader against the
    byte-at-a-time codec they replaced, kept here as the oracle. *)

module Json = Support.Json

(* ------------------------------------------------------------------ *)
(* The oracle: one byte at a time                                     *)
(* ------------------------------------------------------------------ *)

let oracle_escape (s : string) =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** The string literal that is all of [src], read one byte at a time.
    Each [\u] escape becomes UTF-8 on its own, so it agrees with
    {!Json.parse} only on escapes outside the surrogate range. *)
let oracle_read (src : string) : string option =
  let n = String.length src in
  let pos = ref 1 in
  let buf = Buffer.create 16 in
  let utf8_add code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let rec go () =
    if !pos >= n then None
    else
      let c = src.[!pos] in
      incr pos;
      match c with
      | '"' -> if !pos = n then Some (Buffer.contents buf) else None
      | '\\' -> (
          if !pos >= n then None
          else
            let e = src.[!pos] in
            incr pos;
            let add c = Buffer.add_char buf c; go () in
            match e with
            | '"' -> add '"'
            | '\\' -> add '\\'
            | '/' -> add '/'
            | 'n' -> add '\n'
            | 't' -> add '\t'
            | 'r' -> add '\r'
            | 'b' -> add '\b'
            | 'f' -> add '\012'
            | 'u' when !pos + 4 <= n -> (
                let h = String.sub src !pos 4 in
                pos := !pos + 4;
                match int_of_string_opt ("0x" ^ h) with
                | Some code ->
                    utf8_add code;
                    go ()
                | None -> None)
            | _ -> None)
      | c -> Buffer.add_char buf c; go ()
  in
  if n > 0 && src.[0] = '"' then go () else None

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

(* Bytes the printer escapes, and bytes just outside what it escapes
   (DEL, the first and last non-ASCII byte, and [/], which only a
   reader unescapes), so that runs start and end on them. *)
let specials = "\"\\\n\t\r\000\001\031\127\128\255/"
let specials_list = List.of_seq (String.to_seq specials)

(** Byte strings made of runs: plain runs of random bytes, runs of one
    special byte, and bytes drawn from all 256 values. *)
let gen_bytes : string QCheck.Gen.t =
  let open QCheck.Gen in
  let run =
    frequency
      [
        (3, string_size ~gen:char (int_range 0 40));
        (2, map (String.make 1) (oneofl specials_list));
        (1, map2 String.make (int_range 1 4) (oneofl [ '"'; '\\'; '\n' ]));
      ]
  in
  frequency
    [ (1, return ""); (2, string_size ~gen:char (int_range 0 300));
      (6, map (String.concat "") (list_size (int_range 0 30) run)) ]

(** Strings of 1 to 1.25 MB: long plain runs broken by escapes, the
    shape of printed IR. *)
let gen_large : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range (1 lsl 20) (5 lsl 18) >>= fun size ->
  int >>= fun seed ->
  let st = Random.State.make [| seed |] in
  return
    (String.init size (fun _ ->
         match Random.State.int st 64 with
         | 0 -> '\n'
         | 1 -> specials.[Random.State.int st (String.length specials)]
         | _ -> Char.chr (32 + Random.State.int st 95)))

let print_bytes s =
  if String.length s > 200 then Printf.sprintf "<%d bytes>" (String.length s)
  else String.escaped s

let arb_bytes = QCheck.make ~print:print_bytes gen_bytes
let arb_large = QCheck.make ~print:print_bytes gen_large

(* ------------------------------------------------------------------ *)
(* Differential properties                                            *)
(* ------------------------------------------------------------------ *)

(* The printer matches the oracle byte for byte, and both readers give
   the string back. *)
let agrees s =
  let printed = Json.to_string (Json.Str s) in
  printed = "\"" ^ oracle_escape s ^ "\""
  && Json.parse printed = Ok (Json.Str s)
  && oracle_read printed = Some s

let prop_print_parse =
  QCheck.Test.make ~name:"printer = oracle, parse (print s) = s" ~count:500
    arb_bytes agrees

let prop_print_parse_large =
  QCheck.Test.make ~name:"printer = oracle on 1 MB strings" ~count:4 arb_large
    agrees

(* String literals as a hand-written client may send them: raw bytes
   (control bytes included) and every escape, [\u] outside the
   surrogate range in either case, where the oracle is right. *)
let gen_literal : string QCheck.Gen.t =
  let open QCheck.Gen in
  let raw =
    map (fun c -> if c = '"' || c = '\\' then "x" else String.make 1 c) char
  in
  let simple =
    map
      (fun c -> "\\" ^ String.make 1 c)
      (oneofl [ '"'; '\\'; '/'; 'b'; 'f'; 'n'; 'r'; 't' ])
  in
  let u =
    map2
      (fun code upper ->
        let code =
          if code >= 0xD800 && code < 0xE000 then code - 0x800 else code
        in
        let h = Printf.sprintf "%04x" code in
        "\\u" ^ (if upper then String.uppercase_ascii h else h))
      (int_range 0 0xFFFF) bool
  in
  map
    (fun parts -> "\"" ^ String.concat "" parts ^ "\"")
    (list_size (int_range 0 60) (frequency [ (6, raw); (2, simple); (2, u) ]))

let prop_reader_agrees =
  QCheck.Test.make ~name:"string reader = oracle on escaped input" ~count:500
    (QCheck.make ~print:String.escaped gen_literal) (fun lit ->
      match (Json.parse lit, oracle_read lit) with
      | Ok (Json.Str s), Some s' -> s = s'
      | _ -> false)

let test_edges () =
  let all = String.init 256 Char.chr in
  List.iter
    (fun s -> Alcotest.(check bool) (String.escaped s) true (agrees s))
    [ ""; all; all ^ all; "\""; "\\"; "\\\""; "\000"; "a\nb"; "\n\n" ]

(* ------------------------------------------------------------------ *)
(* \u escapes                                                         *)
(* ------------------------------------------------------------------ *)

let parsed lit = Json.parse ("\"" ^ lit ^ "\"")

let test_unicode_escapes () =
  let ok lit want =
    match parsed lit with
    | Ok (Json.Str s) -> Alcotest.(check string) lit want s
    | Ok _ -> Alcotest.failf "%s: not a string" lit
    | Error e -> Alcotest.failf "%s: %s" lit e
  in
  (* U+1F600, as Python's json.dumps sends it: one 4-byte sequence,
     not two 3-byte halves *)
  ok "\\ud83d\\ude00" "\xF0\x9F\x98\x80";
  ok "k\\uD83D\\uDE00!" "k\xF0\x9F\x98\x80!";
  ok "\\ud800\\udc00" "\xF0\x90\x80\x80";
  ok "\\udbff\\udfff" "\xF4\x8F\xBF\xBF";
  ok "\\u0041\\u00e9\\u20AC\\uffff" "A\xC3\xA9\xE2\x82\xAC\xEF\xBF\xBF";
  ok "\xF0\x9F\x98\x80" "\xF0\x9F\x98\x80";
  let bad lit =
    Alcotest.(check bool)
      (lit ^ " rejected") true
      (Result.is_error (parsed lit))
  in
  List.iter bad
    [ "\\ud83d"; "\\ud83dx"; "\\ud83d\\n"; "\\ud83d\\ud83d"; "\\ude00";
      "\\ude00\\ud83d"; "\\u1_23"; "\\u+123"; "\\u 123"; "\\u12"; "\\u00g0" ];
  (* the printer leaves non-ASCII bytes raw *)
  Alcotest.(check string) "raw UTF-8 out" "\"k\xF0\x9F\x98\x80\""
    (Json.to_string (Json.Str "k\xF0\x9F\x98\x80"))

let suite =
  [
    Alcotest.test_case "\\u escapes decode to UTF-8" `Quick
      test_unicode_escapes;
    Alcotest.test_case "codec edge strings" `Quick test_edges;
    QCheck_alcotest.to_alcotest prop_print_parse;
    QCheck_alcotest.to_alcotest prop_print_parse_large;
    QCheck_alcotest.to_alcotest prop_reader_agrees;
  ]
