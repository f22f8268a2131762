(** Parser for the generic textual form produced by
    [Printer.module_to_string ~generic:true].

    The grammar is the MLIR generic-op syntax restricted to what the
    printer emits: single-block regions, quoted op names, explicit
    functional type signatures.  SSA ids are file-local per function;
    types are reconstructed from op signatures and checked for
    consistency. *)

type token =
  | Word of string  (** identifiers, keywords, [x32xf32] fragments *)
  | Int of int
  | Float of float
  | Str of string  (** double-quoted *)
  | Pct of int  (** [%42] *)
  | At of string  (** [@name] *)
  | Caret of string  (** [^bb] *)
  | Punct of char
  | Arrow  (** [->] *)
  | Eof

let fail fmt = Support.Err.fail ~pass:"mhir.parser" fmt

module Scan = Support.Scan
open Scan.Stream

(* A literal by the scanner's integer rule, or a parse error *)
let int_lit what lit =
  match Scan.integer lit with
  | Some i -> i
  | None -> fail "bad %s %s" what lit

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                          *)
(* ------------------------------------------------------------------ *)

let number sc =
  match Scan.number sc with Scan.Int i -> Int i | Scan.Float f -> Float f

(* the name after a sigil *)
let name sc =
  Scan.skip sc 1;
  Scan.run sc Scan.is_name

(* A minus right before a digit is the literal's sign, so [min_int],
   whose magnitude is past [max_int], reads back; after an operand or a
   closing bracket it is a binary minus, as in [d0 -3 floordiv 2]. *)
let signed sc =
  Scan.is_digit (Scan.char sc 1)
  &&
  match Scan.last sc with
  | Word _ | Int _ | Float _ | Pct _ | Punct (')' | ']') -> false
  | _ -> true

let tokenize (src : string) : token array =
  Scan.tokenize ~pass:"mhir.parser" ~eof:Eof src (fun sc ->
      match Scan.peek sc with
      | ' ' | '\t' | '\n' | '\r' -> Scan.skip_blanks sc; Eof
      | '/' when Scan.char sc 1 = '/' -> Scan.skip_line sc; Eof
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Word (Scan.run sc Scan.is_name)
      | '0' .. '9' -> number sc
      | '-' when signed sc -> number sc
      | '"' -> Str (Scan.quoted sc)
      | '%' ->
          Scan.skip sc 1;
          let digits = Scan.run sc Scan.is_digit in
          if digits = "" then fail "expected SSA id after %%";
          Pct (int_lit "SSA id" digits)
      | '@' -> At (name sc)
      | '^' -> Caret (name sc)
      | '-' when Scan.char sc 1 = '>' ->
          Scan.skip sc 2;
          Arrow
      | c ->
          Scan.skip sc 1;
          Punct c)

let token_str = function
  | Word w -> w
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str st -> Printf.sprintf "%S" st
  | Pct i -> "%" ^ string_of_int i
  | At a -> "@" ^ a
  | Caret c -> "^" ^ c
  | Punct c -> String.make 1 c
  | Arrow -> "->"
  | Eof -> "<eof>"

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let scalar_of_string = function
  | "i1" -> Types.I1
  | "i32" -> Types.I32
  | "i64" -> Types.I64
  | "index" -> Types.Index
  | "f32" -> Types.F32
  | "f64" -> Types.F64
  | s -> fail "unknown scalar type %s" s

let parse_ty s =
  match cur s with
  | Word "memref" ->
      advance s;
      expect s (Punct '<');
      (* Shape fragments arrive as Int and Word tokens: [32]; [x32xf32]. *)
      let buf = Buffer.create 16 in
      let rec collect () =
        match cur s with
        | Punct '>' -> advance s
        | Int i when i >= 0 ->
            Buffer.add_string buf (string_of_int i);
            advance s;
            collect ()
        | Word w ->
            Buffer.add_string buf w;
            advance s;
            collect ()
        | t -> fail "unexpected token in memref type: %s" (token_str t)
      in
      collect ();
      let parts = String.split_on_char 'x' (Buffer.contents buf) in
      let parts = List.filter (fun p -> p <> "") parts in
      (match List.rev parts with
      | elem :: dims_rev when dims_rev <> [] ->
          let dims = List.rev_map (int_lit "memref dimension") dims_rev in
          Types.Memref (dims, scalar_of_string elem)
      | _ -> fail "malformed memref type")
  | Word w ->
      advance s;
      scalar_of_string w
  | t -> fail "expected a type, found %s" (token_str t)

let parse_ty_list s =
  expect s (Punct '(');
  let rec go acc =
    match cur s with
    | Punct ')' ->
        advance s;
        List.rev acc
    | _ ->
        let t = parse_ty s in
        if eat s (Punct ',') then go (t :: acc)
        else begin
          expect s (Punct ')');
          List.rev (t :: acc)
        end
  in
  go []

(* ------------------------------------------------------------------ *)
(* Affine maps                                                        *)
(* ------------------------------------------------------------------ *)

let parse_affine_map s =
  (* "affine_map" has been consumed by the caller. *)
  expect s (Punct '<');
  expect s (Punct '(');
  let rec parse_vars acc close =
    match cur s with
    | Punct c when c = close ->
        advance s;
        List.rev acc
    | Word w ->
        advance s;
        if eat s (Punct ',') then parse_vars (w :: acc) close
        else begin
          expect s (Punct close);
          List.rev (w :: acc)
        end
    | t -> fail "expected dim/sym name, found %s" (token_str t)
  in
  let dims = parse_vars [] ')' in
  let syms = if eat s (Punct '[') then parse_vars [] ']' else [] in
  expect s Arrow;
  expect s (Punct '(');
  let var_index kind lst name =
    let rec idx i = function
      | [] -> fail "unknown %s variable %s" kind name
      | x :: _ when x = name -> i
      | _ :: tl -> idx (i + 1) tl
    in
    idx 0 lst
  in
  let rec parse_expr () =
    let lhs = parse_term () in
    parse_expr_rest lhs
  and parse_expr_rest lhs =
    match cur s with
    | Punct '+' ->
        advance s;
        parse_expr_rest (Affine_expr.add lhs (parse_term ()))
    | Punct '-' ->
        advance s;
        parse_expr_rest (Affine_expr.sub lhs (parse_term ()))
    | _ -> lhs
  and parse_term () =
    let lhs = parse_factor () in
    parse_term_rest lhs
  and parse_term_rest lhs =
    match cur s with
    | Punct '*' ->
        advance s;
        parse_term_rest (Affine_expr.mul lhs (parse_factor ()))
    | Word "mod" ->
        advance s;
        parse_term_rest (Affine_expr.modulo lhs (parse_factor ()))
    | Word "floordiv" ->
        advance s;
        parse_term_rest (Affine_expr.floordiv lhs (parse_factor ()))
    | Word "ceildiv" ->
        advance s;
        parse_term_rest (Affine_expr.ceildiv lhs (parse_factor ()))
    | _ -> lhs
  and parse_factor () =
    match cur s with
    | Int i ->
        advance s;
        Affine_expr.const i
    | Punct '-' ->
        advance s;
        Affine_expr.mul (Affine_expr.const (-1)) (parse_factor ())
    | Punct '(' ->
        advance s;
        let e = parse_expr () in
        expect s (Punct ')');
        e
    | Word w when List.mem w dims ->
        advance s;
        Affine_expr.dim (var_index "dim" dims w)
    | Word w when List.mem w syms ->
        advance s;
        Affine_expr.sym (var_index "sym" syms w)
    | t -> fail "unexpected token in affine expression: %s" (token_str t)
  in
  let rec parse_results acc =
    let e = parse_expr () in
    if eat s (Punct ',') then parse_results (e :: acc)
    else begin
      expect s (Punct ')');
      List.rev (e :: acc)
    end
  in
  let exprs = parse_results [] in
  expect s (Punct '>');
  Affine_map.make ~num_dims:(List.length dims) ~num_syms:(List.length syms)
    exprs

(* ------------------------------------------------------------------ *)
(* Attributes                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_attr_value s : Attr.t =
  match cur s with
  | Int i ->
      advance s;
      Attr.Int i
  | Float f ->
      advance s;
      Attr.Float f
  | Punct '-' -> (
      advance s;
      match cur s with
      | Int i ->
          advance s;
          Attr.Int (-i)
      | Float f ->
          advance s;
          Attr.Float (-.f)
      | Word "inf" ->
          advance s;
          Attr.Float neg_infinity
      | t -> fail "expected number after '-', found %s" (token_str t))
  (* the non-finite literals {!Support.Float_lit} prints *)
  | Word "inf" ->
      advance s;
      Attr.Float infinity
  | Word "nan" ->
      advance s;
      Attr.Float Float.nan
  | Word "true" ->
      advance s;
      Attr.Bool true
  | Word "false" ->
      advance s;
      Attr.Bool false
  | Str st ->
      advance s;
      Attr.Str st
  | Word "type" ->
      advance s;
      expect s (Punct '(');
      let t = parse_ty s in
      expect s (Punct ')');
      Attr.Type t
  | Word "affine_map" ->
      advance s;
      Attr.Map (parse_affine_map s)
  | Punct '[' ->
      advance s;
      let rec go acc =
        if eat s (Punct ']') then List.rev acc
        else
          let v = parse_attr_value s in
          if eat s (Punct ',') then go (v :: acc)
          else begin
            expect s (Punct ']');
            List.rev (v :: acc)
          end
      in
      Attr.List (go [])
  | t -> fail "unexpected attribute value: %s" (token_str t)

let parse_attr_dict s =
  if not (eat s (Punct '{')) then []
  else
    let rec go acc =
      if eat s (Punct '}') then List.rev acc
      else
        match cur s with
        | Word key ->
            advance s;
            expect s (Punct '=');
            let v = parse_attr_value s in
            let acc = (key, v) :: acc in
            if eat s (Punct ',') then go acc
            else begin
              expect s (Punct '}');
              List.rev acc
            end
        | t -> fail "expected attribute key, found %s" (token_str t)
    in
    go []

(* ------------------------------------------------------------------ *)
(* Ops and functions                                                  *)
(* ------------------------------------------------------------------ *)

(** Per-function SSA environment: external ids -> values. *)
type env = { values : (int, Ir.value) Hashtbl.t }

let get_value env id ty =
  match Hashtbl.find_opt env.values id with
  | Some v ->
      if not (Types.equal v.Ir.ty ty) then
        fail "SSA value %%%d used at type %s but defined at type %s" id
          (Types.to_string ty)
          (Types.to_string v.Ir.ty);
      v
  | None ->
      let v = { Ir.id; ty; hint = "" } in
      Hashtbl.replace env.values id v;
      v

let parse_id_list s =
  (* %0, %1, ... — returns raw ids *)
  let rec go acc =
    match cur s with
    | Pct id ->
        advance s;
        if eat s (Punct ',') then go (id :: acc) else List.rev (id :: acc)
    | _ -> List.rev acc
  in
  go []

let rec parse_op env s : Ir.op =
  (* results *)
  let result_ids =
    match cur s with
    | Pct _ ->
        let ids = parse_id_list s in
        expect s (Punct '=');
        ids
    | _ -> []
  in
  let name =
    match cur s with
    | Str n ->
        advance s;
        n
    | t -> fail "expected quoted op name, found %s" (token_str t)
  in
  expect s (Punct '(');
  let operand_ids =
    if eat s (Punct ')') then []
    else
      let ids = parse_id_list s in
      expect s (Punct ')');
      ids
  in
  let attrs = parse_attr_dict s in
  let regions =
    if cur s = Punct '(' && peek_at s 1 = Punct '{' then begin
      advance s;
      let rec go acc =
        let r = parse_region env s in
        if eat s (Punct ',') then go (r :: acc)
        else begin
          expect s (Punct ')');
          List.rev (r :: acc)
        end
      in
      go []
    end
    else []
  in
  expect s (Punct ':');
  let operand_tys = parse_ty_list s in
  expect s Arrow;
  let result_tys = parse_ty_list s in
  if List.length operand_tys <> List.length operand_ids then
    fail "op %s: %d operands but %d operand types" name
      (List.length operand_ids) (List.length operand_tys);
  if List.length result_tys <> List.length result_ids then
    fail "op %s: %d results but %d result types" name (List.length result_ids)
      (List.length result_tys);
  let operands = List.map2 (get_value env) operand_ids operand_tys in
  let results = List.map2 (get_value env) result_ids result_tys in
  { Ir.name; operands; results; attrs; regions }

and parse_region env s : Ir.region =
  expect s (Punct '{');
  (match cur s with
  | Caret _ -> advance s
  | t -> fail "expected ^bb block label, found %s" (token_str t));
  expect s (Punct '(');
  let rec parse_params acc =
    if eat s (Punct ')') then List.rev acc
    else
      match cur s with
      | Pct id ->
          advance s;
          expect s (Punct ':');
          let ty = parse_ty s in
          let v = get_value env id ty in
          if eat s (Punct ',') then parse_params (v :: acc)
          else begin
            expect s (Punct ')');
            List.rev (v :: acc)
          end
      | t -> fail "expected block parameter, found %s" (token_str t)
  in
  let params = parse_params [] in
  expect s (Punct ':');
  let rec parse_ops acc =
    if eat s (Punct '}') then List.rev acc
    else
      let op = parse_op env s in
      parse_ops (op :: acc)
  in
  let ops = parse_ops [] in
  { Ir.blocks = [ { Ir.params; ops } ] }

let parse_func s : Ir.func =
  expect s (Word "func.func");
  let fname =
    match cur s with
    | At n ->
        advance s;
        n
    | t -> fail "expected @function-name, found %s" (token_str t)
  in
  let env = { values = Hashtbl.create 64 } in
  expect s (Punct '(');
  let rec parse_args acc =
    if eat s (Punct ')') then List.rev acc
    else
      match cur s with
      | Pct id ->
          advance s;
          expect s (Punct ':');
          let ty = parse_ty s in
          let v = get_value env id ty in
          if eat s (Punct ',') then parse_args (v :: acc)
          else begin
            expect s (Punct ')');
            List.rev (v :: acc)
          end
      | t -> fail "expected function argument, found %s" (token_str t)
  in
  let args = parse_args [] in
  expect s Arrow;
  let ret_tys = parse_ty_list s in
  let fattrs =
    if cur s = Word "attributes" then begin
      advance s;
      parse_attr_dict s
    end
    else []
  in
  expect s (Punct '{');
  let rec parse_ops acc =
    if eat s (Punct '}') then List.rev acc
    else
      let op = parse_op env s in
      parse_ops (op :: acc)
  in
  let ops = parse_ops [] in
  { Ir.fname; args; ret_tys; body = Ir.region1 ~params:[] ops; fattrs }

(** Parse a whole module from the generic textual form. *)
let parse_module (src : string) : Ir.modul =
  let s = make ~pass:"mhir.parser" ~show:token_str (tokenize src) in
  expect s (Word "module");
  expect s (Punct '{');
  let rec go acc =
    match cur s with
    | Punct '}' ->
        advance s;
        List.rev acc
    | Word "func.func" -> go (parse_func s :: acc)
    | t -> fail "expected func.func or '}', found %s" (token_str t)
  in
  let funcs = go [] in
  (match cur s with
  | Eof -> ()
  | t -> fail "trailing input after module: %s" (token_str t));
  { Ir.funcs }
