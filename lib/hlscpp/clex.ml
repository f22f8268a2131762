(** Lexer for the C subset.  [#pragma ...] lines become single tokens;
    [//] and [/* */] comments are skipped. *)

type token =
  | Tident of string
  | Tint of int
  | Tfloat of float * bool  (** value, had 'f' suffix *)
  | Tpragma of string  (** full pragma line without the leading # *)
  | Tpunct of string  (** operators and punctuation, longest match *)
  | Teof

module Scan = Support.Scan

(* The two-character operators: <= >= == != && || ++ -- += -= *= /=
   << >> *)
let is_two_char_op a b =
  match (a, b) with
  | ('<' | '>' | '=' | '!' | '+' | '-' | '*' | '/'), '='
  | '&', '&' | '|', '|' | '+', '+' | '-', '-' | '<', '<' | '>', '>' ->
      true
  | _ -> false

(* each one-character operator's text, made once *)
let one_char = Array.init 256 (fun i -> String.make 1 (Char.chr i))

(* A [-] is always an operator: the parser reads a negative literal as
   a negation, so a literal here starts at a digit. *)
let tokenize (src : string) : token array =
  Scan.tokenize ~pass:"hlscpp.lexer" ~eof:Teof src (fun sc ->
      match Scan.peek sc with
      | ' ' | '\t' | '\r' | '\n' -> Scan.skip_blanks sc; Teof
      | '/' when Scan.char sc 1 = '/' -> Scan.skip_line sc; Teof
      | '/' when Scan.char sc 1 = '*' ->
          Scan.skip sc 2;
          while
            not (Scan.at_end sc || (Scan.peek sc = '*' && Scan.char sc 1 = '/'))
          do
            Scan.skip sc 1
          done;
          Scan.skip sc 2;
          Teof
      | '#' ->
          Scan.skip sc 1;
          Tpragma (String.trim (Scan.run sc (fun c -> c <> '\n')))
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Tident (Scan.run sc Scan.is_alnum)
      | '0' .. '9' -> (
          let v = Scan.number sc in
          let single =
            match Scan.peek sc with
            | 'f' | 'F' -> Scan.skip sc 1; true
            | _ -> false
          in
          match v with
          | Scan.Int i when not single -> Tint i
          | Scan.Int i -> Tfloat (float_of_int i, true)
          | Scan.Float f -> Tfloat (f, single))
      | c when is_two_char_op c (Scan.char sc 1) -> Tpunct (Scan.take sc 2)
      | c ->
          Scan.skip sc 1;
          Tpunct one_char.(Char.code c))
