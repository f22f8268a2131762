(** Recursive-descent parser for the C subset. *)

open Cast
open Clex
open Support.Scan.Stream

let fail fmt = Support.Err.fail ~pass:"hlscpp.parser" fmt

(* A token as the messages quote it *)
let token_str t =
  let text =
    match t with
    | Tident w -> w
    | Tint i -> string_of_int i
    | Tfloat (f, _) -> string_of_float f
    | Tpragma p -> "#" ^ p
    | Tpunct p -> p
    | Teof -> "<eof>"
  in
  "'" ^ text ^ "'"

let expect_ident s =
  match cur s with
  | Tident w ->
      advance s;
      w
  | t -> fail "expected identifier, found %s" (token_str t)

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

(* A binary operator's precedence, loosest first; 0 for any other
   punctuation.  Every level is left-associative. *)
let precedence = function
  | "||" -> 1
  | "&&" -> 2
  | "|" -> 3
  | "^" -> 4
  | "&" -> 5
  | "<" | ">" | "<=" | ">=" | "==" | "!=" -> 6
  | "<<" | ">>" -> 7
  | "+" | "-" -> 8
  | "*" | "/" | "%" -> 9
  | _ -> 0

let rec parse_expr s : expr =
  let c = parse_binary s 1 in
  match cur s with
  | Tpunct "?" ->
      advance s;
      let a = parse_expr s in
      expect s (Tpunct ":");
      let b = parse_expr s in
      Eternary (c, a, b)
  | _ -> c

(* the operators of precedence [min] or tighter *)
and parse_binary s min =
  let rec go lhs =
    match cur s with
    | Tpunct op when precedence op >= min ->
        advance s;
        go (Ebin (op, lhs, parse_binary s (precedence op + 1)))
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
  | Tpunct "(" when (match peek_at s 1 with
                     | Tident w -> ty_of_ident w <> None
                     | _ -> false) -> (
      (* cast *)
      advance s;
      let w = expect_ident s in
      expect s (Tpunct ")");
      match ty_of_ident w with
      | Some ty -> Ecast (ty, parse_unary s)
      | None -> fail "bad cast")
  | _ -> parse_postfix s

and parse_postfix s =
  let rec go e =
    match cur s with
    | Tpunct "[" ->
        advance s;
        let idx = parse_expr s in
        expect s (Tpunct "]");
        go (Eindex (e, idx))
    | _ -> e
  in
  go (parse_primary s)

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
      if eat s (Tpunct "(") then begin
        let rec args acc =
          if eat s (Tpunct ")") then List.rev acc
          else
            let a = parse_expr s in
            if eat s (Tpunct ",") then args (a :: acc)
            else begin
              expect s (Tpunct ")");
              List.rev (a :: acc)
            end
        in
        Ecall (name, args [])
      end
      else Eident name)
  | Tpunct "(" ->
      advance s;
      let e = parse_expr s in
      expect s (Tpunct ")");
      e
  | t -> fail "expected expression, found %s" (token_str t)

(* ------------------------------------------------------------------ *)
(* Pragmas                                                            *)
(* ------------------------------------------------------------------ *)

let parse_pragma (line : string) : pragma =
  let words =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  (* an option's integer value, or [default] when it is malformed *)
  let int_value v default = Option.value (Support.Scan.integer v) ~default in
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
                | "ii", v -> int_value v acc
                | _ -> acc)
              1 opts
          in
          Ppipeline ii
      | "unroll" ->
          let f =
            List.fold_left
              (fun acc o ->
                match kv_lc o with
                | "factor", v -> int_value v acc
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
              | "factor", v -> factor := int_value v !factor
              | "dim", v -> dim := int_value v !dim
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
      expect s (Tpunct "(");
      (* 'int'/'long' ivar = init *)
      let _ =
        match cur s with
        | Tident ("int" | "long") -> advance s
        | _ -> ()
      in
      let ivar = expect_ident s in
      expect s (Tpunct "=");
      let init = parse_expr s in
      expect s (Tpunct ";");
      let bvar = expect_ident s in
      if bvar <> ivar then fail "for: condition variable differs from induction";
      expect s (Tpunct "<");
      let bound = parse_expr s in
      expect s (Tpunct ";");
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
        | t -> fail "for: expected ++ or +=, found %s" (token_str t)
      in
      expect s (Tpunct ")");
      let body = parse_block s in
      Sfor { ivar; init; bound; step; body }
  | Tident "if" ->
      advance s;
      expect s (Tpunct "(");
      let c = parse_expr s in
      expect s (Tpunct ")");
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
      if eat s (Tpunct ";") then Sreturn None
      else begin
        let e = parse_expr s in
        expect s (Tpunct ";");
        Sreturn (Some e)
      end
  | Tident w when ty_of_ident w <> None && w <> "void" -> (
      advance s;
      let name = expect_ident s in
      let rec dims acc =
        if eat s (Tpunct "[") then begin
          match cur s with
          | Tint d ->
              advance s;
              expect s (Tpunct "]");
              dims (d :: acc)
          | t -> fail "expected array dimension, found %s" (token_str t)
        end
        else List.rev acc
      in
      let dims = dims [] in
      let init = if eat s (Tpunct "=") then Some (parse_expr s) else None in
      expect s (Tpunct ";");
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
          expect s (Tpunct ";");
          Sassign (lhs, rhs)
      | Tpunct (("+=" | "-=" | "*=" | "/=") as op) ->
          advance s;
          let rhs = parse_expr s in
          expect s (Tpunct ";");
          Scompound_assign (String.sub op 0 1, lhs, rhs)
      | _ ->
          expect s (Tpunct ";");
          Sexpr lhs)

and parse_block s : stmt list =
  expect s (Tpunct "{");
  let rec go acc =
    if eat s (Tpunct "}") then List.rev acc else go (parse_stmt s :: acc)
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
  expect s (Tpunct "(");
  let rec params acc =
    if eat s (Tpunct ")") then List.rev acc
    else begin
      let pty =
        match ty_of_ident (expect_ident s) with
        | Some t -> t
        | None -> fail "expected parameter type"
      in
      let pname = expect_ident s in
      let rec dims acc2 =
        if eat s (Tpunct "[") then
          match cur s with
          | Tint d ->
              advance s;
              expect s (Tpunct "]");
              dims (d :: acc2)
          | t -> fail "expected dimension, found %s" (token_str t)
        else List.rev acc2
      in
      let p = { pname; pty; dims = dims [] } in
      if eat s (Tpunct ",") then params (p :: acc)
      else begin
        expect s (Tpunct ")");
        List.rev (p :: acc)
      end
    end
  in
  let params = params [] in
  let body = parse_block s in
  { fname; ret; params; body }

let parse_file (src : string) : file =
  let s = make ~pass:"hlscpp.parser" ~show:token_str (Clex.tokenize src) in
  let rec go acc =
    match cur s with
    | Teof -> List.rev acc
    | Tpragma _ ->
        advance s;
        go acc  (* file-level pragmas ignored *)
    | _ -> go (parse_func s :: acc)
  in
  go []
