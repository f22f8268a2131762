(** One scanner for the text front-ends.

    A cursor over source text with what the mhir, LLVM IR and C
    tokenizers share: blank and line skipping, character runs, the one
    numeric-literal rule, quoted strings with their escapes, and the
    token loop, which collects tokens in chunks and joins them once at
    the end; then a token stream for their parsers. Each tokenizer gives {!tokenize} only its
    own dispatch: comment syntax, sigils, and when a [-] starts a
    literal. Errors are {!Err.Compile_error}s of the [pass] given to
    {!tokenize}.  Each token costs one call of the dispatch: a
    per-character loop stays inside this module. *)

type 'tok t = {
  src : string;
  mutable pos : int;
  pass : string;
  eof : 'tok;
  mutable chunk : 'tok array;  (** the tokens read since [full] *)
  mutable len : int;  (** how many of [chunk] are read *)
  mutable full : 'tok array list;  (** full chunks, the newest first *)
}

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(** The characters of an IR name: a word, or what follows [%], [@] or
    [^]. *)
let is_name c = is_alnum c || c = '.'

(** The character [k] bytes past the cursor; ['\000'] past the end. *)
let char sc k =
  let i = sc.pos + k in
  if i < String.length sc.src then String.unsafe_get sc.src i else '\000'

(** The character at the cursor. *)
let peek sc = char sc 0

let at_end sc = sc.pos >= String.length sc.src

let skip sc k =
  let n = String.length sc.src in
  sc.pos <- (if sc.pos + k < n then sc.pos + k else n)

let skip_while sc pred =
  let n = String.length sc.src in
  while sc.pos < n && pred (String.unsafe_get sc.src sc.pos) do
    sc.pos <- sc.pos + 1
  done

(** The run of characters satisfying [pred] at the cursor, maybe empty. *)
let run sc pred =
  let start = sc.pos in
  skip_while sc pred;
  String.sub sc.src start (sc.pos - start)

(** The next [k] bytes, or as many as there are, skipped. *)
let take sc k =
  let start = sc.pos in
  skip sc k;
  String.sub sc.src start (sc.pos - start)

let skip_blanks sc =
  skip_while sc (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false)

let skip_line sc = skip_while sc (fun c -> c <> '\n')

(** [s] in full as an integer literal: an optional [-] and digits, in
    the native range. *)
let integer s =
  let n = String.length s in
  let first = if n > 0 && s.[0] = '-' then 1 else 0 in
  let i = ref first in
  while !i < n && is_digit s.[!i] do incr i done;
  if first < n && !i = n then int_of_string_opt s else None

type number = Int of int | Float of float

(** The literal at the cursor, which is at a digit or at a [-] before
    one: an optional [-], digits, then optionally [.] and digits, then
    optionally [e] or [E], a sign and digits. A [.] or an exponent
    without digits after it is not part of the literal. It is a
    [Float] when it has a fraction or an exponent; an integer outside
    the native range is an error. *)
let number sc =
  let start = sc.pos in
  if char sc 0 = '-' then skip sc 1;
  skip_while sc is_digit;
  let frac = char sc 0 = '.' && is_digit (char sc 1) in
  if frac then begin
    skip sc 1;
    skip_while sc is_digit
  end;
  let exp =
    match (char sc 0, char sc 1) with
    | ('e' | 'E'), d when is_digit d -> skip sc 1; true
    | ('e' | 'E'), ('+' | '-') when is_digit (char sc 2) -> skip sc 2; true
    | _ -> false
  in
  skip_while sc is_digit;
  let lit = String.sub sc.src start (sc.pos - start) in
  if frac || exp then Float (float_of_string lit)
  else
    match integer lit with
    | Some i -> Int i
    | None -> Err.fail ~pass:sc.pass "integer literal %s out of range" lit

(** The double-quoted string at the cursor, unescaped: [\n] and [\t]
    are a newline and a tab, a backslash before any other character is
    that character. *)
let quoted sc =
  let n = String.length sc.src in
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then Err.fail ~pass:sc.pass "unterminated string literal"
    else
      match sc.src.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 >= n then Err.fail ~pass:sc.pass "unterminated escape";
          Buffer.add_char buf
            (match sc.src.[i + 1] with 'n' -> '\n' | 't' -> '\t' | c -> c);
          go (i + 2)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  sc.pos <- go (sc.pos + 1);
  Buffer.contents buf

(* Tokens go to chunks small enough for the minor heap, so reading a
   large text copies no growing array *)
let push sc tok =
  if sc.len = Array.length sc.chunk then begin
    sc.full <- sc.chunk :: sc.full;
    sc.chunk <- Array.make (Array.length sc.chunk) sc.eof;
    sc.len <- 0
  end;
  Array.unsafe_set sc.chunk sc.len tok;
  sc.len <- sc.len + 1

(** The last token read; the end token before the first. *)
let last sc = if sc.len = 0 then sc.eof else sc.chunk.(sc.len - 1)

(** The tokens of [src], then [eof]. [next] reads the token at the
    cursor, which is never at the end, or skips text that is no token
    and answers [eof]. *)
let tokenize ~pass ~eof src next =
  let sc =
    { src; pos = 0; pass; eof; chunk = Array.make 256 eof; len = 0; full = [] }
  in
  while sc.pos < String.length src do
    let tok = next sc in
    if tok != eof then push sc tok
  done;
  push sc eof;
  Array.concat (List.rev (Array.sub sc.chunk 0 sc.len :: sc.full))

(** A parser's view of a token array that ends in its end token. *)
module Stream = struct
  type 'tok t = {
    toks : 'tok array;
    mutable pos : int;
    pass : string;
    show : 'tok -> string;
  }

  let make ~pass ~show toks = { toks; pos = 0; pass; show }

  (* [pos] never passes the end token *)
  let cur s = Array.unsafe_get s.toks s.pos

  (** The token [k] past the current one; the end token past the end. *)
  let peek_at s k =
    let last = Array.length s.toks - 1 in
    s.toks.(if s.pos + k < last then s.pos + k else last)

  let advance s = if s.pos < Array.length s.toks - 1 then s.pos <- s.pos + 1
  let eat s tok = if cur s = tok then (advance s; true) else false

  let expect s tok =
    if not (eat s tok) then
      Err.fail ~pass:s.pass "expected %s, found %s" (s.show tok) (s.show (cur s))
end
