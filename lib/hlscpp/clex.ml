(** Lexer for the C subset.  [#pragma ...] lines become single tokens;
    [//] and [/* */] comments are skipped. *)

type token =
  | Tident of string
  | Tint of int
  | Tfloat of float * bool  (** value, had 'f' suffix *)
  | Tpragma of string  (** full pragma line without the leading # *)
  | Tpunct of string  (** operators and punctuation, longest match *)
  | Teof

let fail fmt = Support.Err.fail ~pass:"hlscpp.lexer" fmt

(* The two-character operators: <= >= == != && || ++ -- += -= *= /=
   << >> *)
let is_two_char_op a b =
  match (a, b) with
  | ('<' | '>' | '=' | '!' | '+' | '-' | '*' | '/'), '='
  | '&', '&' | '|', '|' | '+', '+' | '-', '-' | '<', '<' | '>', '>' ->
      true
  | _ -> false

let tokenize (src : string) : token array =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_ident c = is_ident_start c || (c >= '0' && c <= '9') in
  let is_digit c = c >= '0' && c <= '9' in
  let read_while pred =
    let start = !i in
    while !i < n && pred src.[!i] do incr i done;
    String.sub src start (!i - start)
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then incr i
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do incr i done
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (src.[!i] = '*' && src.[!i + 1] = '/') do incr i done;
      i := min n (!i + 2)
    end
    else if c = '#' then begin
      incr i;
      let line = read_while (fun c -> c <> '\n') in
      toks := Tpragma (String.trim line) :: !toks
    end
    else if is_ident_start c then toks := Tident (read_while is_ident) :: !toks
    else if is_digit c then begin
      let start = !i in
      let _ = read_while is_digit in
      let is_float = ref false in
      if !i < n && src.[!i] = '.' then begin
        is_float := true;
        incr i;
        let _ = read_while is_digit in
        ()
      end;
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        is_float := true;
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        let _ = read_while is_digit in
        ()
      end;
      let lit = String.sub src start (!i - start) in
      let suffix_f =
        if !i < n && (src.[!i] = 'f' || src.[!i] = 'F') then begin
          incr i;
          true
        end
        else false
      in
      if !is_float || suffix_f then
        toks := Tfloat (float_of_string lit, suffix_f) :: !toks
      else
        match int_of_string_opt lit with
        | Some v -> toks := Tint v :: !toks
        | None -> fail "bad integer literal %s" lit
    end
    else begin
      if !i + 1 < n && is_two_char_op c src.[!i + 1] then begin
        toks := Tpunct (String.sub src !i 2) :: !toks;
        i := !i + 2
      end
      else begin
        incr i;
        toks := Tpunct (String.make 1 c) :: !toks
      end
    end
  done;
  Array.of_list (List.rev (Teof :: !toks))
