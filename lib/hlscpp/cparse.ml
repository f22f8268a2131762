(** Recursive-descent parser for the C subset. *)

open Cast
open Clex

let fail fmt = Support.Err.fail ~pass:"hlscpp.parser" fmt

type stream = { toks : token array; mutable pos : int }

let cur s = s.toks.(s.pos)
let peek s k = if s.pos + k < Array.length s.toks then s.toks.(s.pos + k) else Teof
let advance s = s.pos <- s.pos + 1

let token_str = function
  | Tident w -> w
  | Tint i -> string_of_int i
  | Tfloat (f, _) -> string_of_float f
  | Tpragma p -> "#" ^ p
  | Tpunct p -> p
  | Teof -> "<eof>"

let expect_punct s p =
  match cur s with
  | Tpunct q when q = p -> advance s
  | t -> fail "expected '%s', found '%s'" p (token_str t)

let eat_punct s p =
  match cur s with
  | Tpunct q when q = p ->
      advance s;
      true
  | _ -> false

let expect_ident s =
  match cur s with
  | Tident w ->
      advance s;
      w
  | t -> fail "expected identifier, found '%s'" (token_str t)

let ty_of_ident = function
  | "void" -> Some Cvoid
  | "int" -> Some Cint
  | "long" -> Some Clong
  | "float" -> Some Cfloat
  | "double" -> Some Cdouble
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                  *)
(* ------------------------------------------------------------------ *)

let rec parse_expr s : expr = parse_ternary s

and parse_ternary s =
  let c = parse_or s in
  if eat_punct s "?" then begin
    let a = parse_expr s in
    expect_punct s ":";
    let b = parse_expr s in
    Eternary (c, a, b)
  end
  else c

and parse_or s =
  let rec go lhs =
    if eat_punct s "||" then go (Ebin ("||", lhs, parse_and s)) else lhs
  in
  go (parse_and s)

and parse_and s =
  let rec go lhs =
    if eat_punct s "&&" then go (Ebin ("&&", lhs, parse_bitor s)) else lhs
  in
  go (parse_bitor s)

(* the lexer's longest-match rule keeps "|" distinct from "||" and
   "&" from "&&", so single-char bitwise puncts are unambiguous here *)
and parse_bitor s =
  let rec go lhs =
    if eat_punct s "|" then go (Ebin ("|", lhs, parse_bitxor s)) else lhs
  in
  go (parse_bitxor s)

and parse_bitxor s =
  let rec go lhs =
    if eat_punct s "^" then go (Ebin ("^", lhs, parse_bitand s)) else lhs
  in
  go (parse_bitand s)

and parse_bitand s =
  let rec go lhs =
    if eat_punct s "&" then go (Ebin ("&", lhs, parse_cmp s)) else lhs
  in
  go (parse_cmp s)

and parse_cmp s =
  let rec go lhs =
    match cur s with
    | Tpunct (("<" | ">" | "<=" | ">=" | "==" | "!=") as op) ->
        advance s;
        go (Ebin (op, lhs, parse_shift s))
    | _ -> lhs
  in
  go (parse_shift s)

and parse_shift s =
  let rec go lhs =
    match cur s with
    | Tpunct (("<<" | ">>") as op) ->
        advance s;
        go (Ebin (op, lhs, parse_add s))
    | _ -> lhs
  in
  go (parse_add s)

and parse_add s =
  let rec go lhs =
    match cur s with
    | Tpunct (("+" | "-") as op) ->
        advance s;
        go (Ebin (op, lhs, parse_mul s))
    | _ -> lhs
  in
  go (parse_mul s)

and parse_mul s =
  let rec go lhs =
    match cur s with
    | Tpunct (("*" | "/" | "%") as op) ->
        advance s;
        go (Ebin (op, lhs, parse_unary s))
    | _ -> lhs
  in
  go (parse_unary s)

and parse_unary s =
  match cur s with
  | Tpunct "-" ->
      advance s;
      Eunary ("-", parse_unary s)
  | Tpunct "!" ->
      advance s;
      Eunary ("!", parse_unary s)
  | Tpunct "(" when (match peek s 1 with
                     | Tident w -> ty_of_ident w <> None
                     | _ -> false) -> (
      (* cast *)
      advance s;
      let w = expect_ident s in
      expect_punct s ")";
      match ty_of_ident w with
      | Some ty -> Ecast (ty, parse_unary s)
      | None -> fail "bad cast")
  | _ -> parse_postfix s

and parse_postfix s =
  let e = parse_primary s in
  let rec go e =
    if eat_punct s "[" then begin
      let idx = parse_expr s in
      expect_punct s "]";
      go (Eindex (e, idx))
    end
    else e
  in
  go e

and parse_primary s =
  match cur s with
  | Tint v ->
      advance s;
      Eint v
  | Tfloat (v, single) ->
      advance s;
      Efloat (v, single)
  | Tident name -> (
      advance s;
      if eat_punct s "(" then begin
        let rec args acc =
          if eat_punct s ")" then List.rev acc
          else
            let a = parse_expr s in
            if eat_punct s "," then args (a :: acc)
            else begin
              expect_punct s ")";
              List.rev (a :: acc)
            end
        in
        Ecall (name, args [])
      end
      else Eident name)
  | Tpunct "(" ->
      advance s;
      let e = parse_expr s in
      expect_punct s ")";
      e
  | t -> fail "expected expression, found '%s'" (token_str t)

(* ------------------------------------------------------------------ *)
(* Pragmas                                                            *)
(* ------------------------------------------------------------------ *)

let parse_pragma (line : string) : pragma =
  let words =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  let kv w =
    match String.index_opt w '=' with
    | Some i ->
        (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
    | None -> (w, "")
  in
  match words with
  | "pragma" :: "HLS" :: directive :: opts -> (
      (* keyword comparisons are case-insensitive; option {e values}
         (e.g. variable names) keep their case *)
      let kv_lc o =
        let k, v = kv o in
        (String.lowercase_ascii k, v)
      in
      match String.lowercase_ascii directive with
      | "pipeline" ->
          let ii =
            List.fold_left
              (fun acc o ->
                match kv_lc o with
                | "ii", v -> ( try int_of_string v with _ -> acc)
                | _ -> acc)
              1 opts
          in
          Ppipeline ii
      | "unroll" ->
          let f =
            List.fold_left
              (fun acc o ->
                match kv_lc o with
                | "factor", v -> ( try int_of_string v with _ -> acc)
                | _ -> acc)
              0 opts
          in
          Punroll f
      | "array_partition" ->
          let variable = ref "" and kind = ref "cyclic" and factor = ref 1 and dim = ref 1 in
          List.iter
            (fun o ->
              match kv_lc o with
              | "variable", v -> variable := v
              | "factor", v -> ( try factor := int_of_string v with _ -> ())
              | "dim", v -> ( try dim := int_of_string v with _ -> ())
              | ("cyclic" | "block" | "complete"), "" ->
                  kind := String.lowercase_ascii (fst (kv o))
              | _ -> ())
            opts;
          Ppartition { variable = !variable; kind = !kind; factor = !factor; dim = !dim }
      | _ -> Pother line)
  | _ -> Pother line

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt s : stmt =
  match cur s with
  | Tpragma line ->
      advance s;
      Spragma (parse_pragma line)
  | Tident "for" ->
      advance s;
      expect_punct s "(";
      (* 'int'/'long' ivar = init *)
      let _ =
        match cur s with
        | Tident ("int" | "long") -> advance s
        | _ -> ()
      in
      let ivar = expect_ident s in
      expect_punct s "=";
      let init = parse_expr s in
      expect_punct s ";";
      let bvar = expect_ident s in
      if bvar <> ivar then fail "for: condition variable differs from induction";
      expect_punct s "<";
      let bound = parse_expr s in
      expect_punct s ";";
      let step =
        let v = expect_ident s in
        if v <> ivar then fail "for: increment variable differs from induction";
        match cur s with
        | Tpunct "++" ->
            advance s;
            Eint 1
        | Tpunct "+=" ->
            advance s;
            parse_expr s
        | t -> fail "for: expected ++ or +=, found '%s'" (token_str t)
      in
      expect_punct s ")";
      let body = parse_block s in
      Sfor { ivar; init; bound; step; body }
  | Tident "if" ->
      advance s;
      expect_punct s "(";
      let c = parse_expr s in
      expect_punct s ")";
      let then_b = parse_block s in
      let else_b =
        if cur s = Tident "else" then begin
          advance s;
          parse_block s
        end
        else []
      in
      Sif (c, then_b, else_b)
  | Tident "return" ->
      advance s;
      if eat_punct s ";" then Sreturn None
      else begin
        let e = parse_expr s in
        expect_punct s ";";
        Sreturn (Some e)
      end
  | Tident w when ty_of_ident w <> None && w <> "void" -> (
      advance s;
      let name = expect_ident s in
      let rec dims acc =
        if eat_punct s "[" then begin
          match cur s with
          | Tint d ->
              advance s;
              expect_punct s "]";
              dims (d :: acc)
          | t -> fail "expected array dimension, found '%s'" (token_str t)
        end
        else List.rev acc
      in
      let dims = dims [] in
      let init = if eat_punct s "=" then Some (parse_expr s) else None in
      expect_punct s ";";
      match ty_of_ident w with
      | Some ty -> Sdecl (ty, name, dims, init)
      | None -> assert false)
  | _ -> (
      (* assignment or expression statement *)
      let lhs = parse_expr s in
      match cur s with
      | Tpunct "=" ->
          advance s;
          let rhs = parse_expr s in
          expect_punct s ";";
          Sassign (lhs, rhs)
      | Tpunct (("+=" | "-=" | "*=" | "/=") as op) ->
          advance s;
          let rhs = parse_expr s in
          expect_punct s ";";
          Scompound_assign (String.sub op 0 1, lhs, rhs)
      | _ ->
          expect_punct s ";";
          Sexpr lhs)

and parse_block s : stmt list =
  expect_punct s "{";
  let rec go acc =
    if eat_punct s "}" then List.rev acc else go (parse_stmt s :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Functions / file                                                   *)
(* ------------------------------------------------------------------ *)

let parse_func s : func =
  let ret =
    match ty_of_ident (expect_ident s) with
    | Some t -> t
    | None -> fail "expected return type"
  in
  let fname = expect_ident s in
  expect_punct s "(";
  let rec params acc =
    if eat_punct s ")" then List.rev acc
    else begin
      let pty =
        match ty_of_ident (expect_ident s) with
        | Some t -> t
        | None -> fail "expected parameter type"
      in
      let pname = expect_ident s in
      let rec dims acc2 =
        if eat_punct s "[" then
          match cur s with
          | Tint d ->
              advance s;
              expect_punct s "]";
              dims (d :: acc2)
          | t -> fail "expected dimension, found '%s'" (token_str t)
        else List.rev acc2
      in
      let p = { pname; pty; dims = dims [] } in
      if eat_punct s "," then params (p :: acc)
      else begin
        expect_punct s ")";
        List.rev (p :: acc)
      end
    end
  in
  let params = params [] in
  let body = parse_block s in
  { fname; ret; params; body }

let parse_file (src : string) : file =
  let s = { toks = Clex.tokenize src; pos = 0 } in
  let rec go acc =
    match cur s with
    | Teof -> List.rev acc
    | Tpragma _ ->
        advance s;
        go acc  (* file-level pragmas ignored *)
    | _ -> go (parse_func s :: acc)
  in
  go []
