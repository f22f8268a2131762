(** Parser for the textual form produced by {!Lprinter} (the .ll-like
    syntax, including the [!md{...}] metadata and [attrs(...)]
    extensions).  Supports exact round-tripping: for every module [m],
    [parse (print m)] is structurally equal to [m]. *)

module Sym = Support.Interner

type token =
  | Word of string
  | Int of int
  | Float of float
  | Str of string
  | Pct of string  (** [%name] *)
  | At of string  (** [@name] *)
  | Bang  (** [!] *)
  | Punct of char
  | Eof

let fail fmt = Support.Err.fail ~pass:"llvmir.parser" fmt

module Scan = Support.Scan
open Scan.Stream

let number sc =
  match Scan.number sc with Scan.Int i -> Int i | Scan.Float f -> Float f

(* the name after a sigil *)
let name sc =
  Scan.skip sc 1;
  Scan.run sc Scan.is_name

(* Every [-] before a digit is a literal's sign: the syntax has no
   binary minus. *)
let tokenize (src : string) : token array =
  Scan.tokenize ~pass:"llvmir.parser" ~eof:Eof src (fun sc ->
      match Scan.peek sc with
      | ' ' | '\t' | '\n' | '\r' -> Scan.skip_blanks sc; Eof
      | ';' -> Scan.skip_line sc; Eof
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Word (Scan.run sc Scan.is_name)
      | '0' .. '9' -> number sc
      | '-' when Scan.is_digit (Scan.char sc 1) -> number sc
      | '"' -> Str (Scan.quoted sc)
      | '%' -> Pct (name sc)
      | '@' -> At (name sc)
      | '!' ->
          Scan.skip sc 1;
          Bang
      | c ->
          Scan.skip sc 1;
          Punct c)

let token_str = function
  | Word w -> w
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str st -> Printf.sprintf "%S" st
  | Pct r -> "%" ^ r
  | At a -> "@" ^ a
  | Bang -> "!"
  | Punct c -> String.make 1 c
  | Eof -> "<eof>"

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let rec parse_ty s : Ltype.t =
  let base =
    match cur s with
    | Word "void" -> advance s; Ltype.Void
    | Word "i1" -> advance s; Ltype.I1
    | Word "i8" -> advance s; Ltype.I8
    | Word "i16" -> advance s; Ltype.I16
    | Word "i32" -> advance s; Ltype.I32
    | Word "i64" -> advance s; Ltype.I64
    | Word "float" -> advance s; Ltype.Float
    | Word "double" -> advance s; Ltype.Double
    | Word "ptr" -> advance s; Ltype.Ptr None
    | Punct '[' ->
        advance s;
        let n = match cur s with
          | Int n -> advance s; n
          | t -> fail "expected array length, found %s" (token_str t)
        in
        expect s (Word "x");
        let elem = parse_ty s in
        expect s (Punct ']');
        Ltype.Array (n, elem)
    | Punct '{' ->
        advance s;
        let rec go acc =
          let t = parse_ty s in
          if eat s (Punct ',') then go (t :: acc)
          else begin
            expect s (Punct '}');
            List.rev (t :: acc)
          end
        in
        Ltype.Struct (go [])
    | t -> fail "expected a type, found %s" (token_str t)
  in
  let rec stars t = if eat s (Punct '*') then stars (Ltype.Ptr (Some t)) else t in
  stars base

(* ------------------------------------------------------------------ *)
(* Values                                                             *)
(* ------------------------------------------------------------------ *)

(* The non-finite literals {!Support.Float_lit} prints: [inf], [-inf]
   and [nan]. *)
let non_finite s =
  match (cur s, peek_at s 1) with
  | Word "inf", _ -> advance s; Some infinity
  | Word "nan", _ -> advance s; Some Float.nan
  | Punct '-', Word "inf" -> advance s; advance s; Some neg_infinity
  | _ -> None

(* A constant of type [ty], or [None] when the next token is no
   literal.  A literal must fit its type, as in LLVM: a float (finite
   or not) needs a float type, an integer anything else, [true] and
   [false] need [i1], and [null] a pointer. *)
let literal s (ty : Ltype.t) : Lvalue.const option =
  let fits what ok c =
    if not ok then fail "%s literal for type %s" what (Ltype.to_string ty);
    Some c
  in
  let float v = fits "float" (Ltype.is_float ty) (Lvalue.CFloat (v, ty)) in
  match cur s with
  | Int v ->
      advance s;
      fits "integer" (not (Ltype.is_float ty)) (Lvalue.CInt (v, ty))
  | Float v -> advance s; float v
  | Word ("true" | "false" as w) ->
      advance s;
      fits w (Ltype.equal ty Ltype.I1)
        (Lvalue.CInt (Bool.to_int (w = "true"), ty))
  | Word "null" -> advance s; fits "null" (Ltype.is_pointer ty) (Lvalue.CNull ty)
  | Word "undef" -> advance s; Some (Lvalue.CUndef ty)
  | Word "zeroinitializer" -> advance s; Some (Lvalue.CZero ty)
  | _ -> Option.bind (non_finite s) float

let parse_value s (ty : Ltype.t) : Lvalue.t =
  match cur s with
  | Pct r -> advance s; Lvalue.Reg (Sym.intern r, ty)
  | At g -> advance s; Lvalue.Global (Sym.intern g, ty)
  | t -> (
      match literal s ty with
      | Some c -> Lvalue.Const c
      | None -> fail "expected a value, found %s" (token_str t))

(** [ty value] pair. *)
let parse_tv s =
  let ty = parse_ty s in
  parse_value s ty

(* ------------------------------------------------------------------ *)
(* Metadata and attributes                                            *)
(* ------------------------------------------------------------------ *)

let parse_imeta s : (string * Linstr.meta) list =
  if cur s = Bang && peek_at s 1 = Word "md" then begin
    advance s;
    advance s;
    expect s (Punct '{');
    let rec go acc =
      if eat s (Punct '}') then List.rev acc
      else
        match cur s with
        | Word key ->
            advance s;
            expect s (Punct '=');
            let v =
              match cur s with
              | Int i -> advance s; Linstr.MInt i
              | Str str -> advance s; Linstr.MStr str
              | t -> fail "expected metadata value, found %s" (token_str t)
            in
            if eat s (Punct ',') then go ((key, v) :: acc)
            else begin
              expect s (Punct '}');
              List.rev ((key, v) :: acc)
            end
        | t -> fail "expected metadata key, found %s" (token_str t)
    in
    go []
  end
  else []

let parse_attrs s : (string * string) list =
  if cur s = Word "attrs" then begin
    advance s;
    expect s (Punct '(');
    let rec go acc =
      if eat s (Punct ')') then List.rev acc
      else
        match cur s with
        | Word key ->
            advance s;
            expect s (Punct '=');
            let v =
              match cur s with
              | Str str -> advance s; str
              | t -> fail "expected attr string, found %s" (token_str t)
            in
            if eat s (Punct ',') then go ((key, v) :: acc)
            else begin
              expect s (Punct ')');
              List.rev ((key, v) :: acc)
            end
        | t -> fail "expected attr key, found %s" (token_str t)
    in
    go []
  end
  else []

(* ------------------------------------------------------------------ *)
(* Instructions                                                       *)
(* ------------------------------------------------------------------ *)

(* The type an aggregate index reaches; a struct index out of range or
   not constant, or an index into a scalar, is a parse error *)
let gep_step ty idx =
  match Ltype.gep_step ty idx with
  | t -> t
  | exception Invalid_argument _ ->
      fail "cannot index %s with %s" (Ltype.to_string ty)
        (match idx with Some i -> string_of_int i | None -> "a variable")

let parse_inst s : Linstr.t =
  let result =
    match (cur s, peek_at s 1) with
    | Pct r, Punct '=' ->
        advance s;
        advance s;
        r
    | _ -> ""
  in
  let kw =
    match cur s with
    | Word w -> advance s; w
    | t -> fail "expected instruction keyword, found %s" (token_str t)
  in
  let open Linstr in
  let binop op =
    let ty = parse_ty s in
    let a = parse_value s ty in
    expect s (Punct ',');
    let b = parse_value s ty in
    (op a b, ty)
  in
  (* the constant indices after an aggregate operand, and the element
     type they reach *)
  let agg_path agg =
    let rec go ty acc =
      if eat s (Punct ',') then
        match cur s with
        | Int i -> advance s; go (gep_step ty (Some i)) (i :: acc)
        | t -> fail "expected index, found %s" (token_str t)
      else (List.rev acc, ty)
    in
    go (Lvalue.type_of agg) []
  in
  let op, ty =
    match kw with
    | "icmp" ->
        let p =
          match cur s with
          | Word w -> (
              advance s;
              match icmp_of_string w with
              | Some p -> p
              | None -> fail "unknown icmp predicate %s" w)
          | t -> fail "expected icmp predicate, found %s" (token_str t)
        in
        let ty = parse_ty s in
        let a = parse_value s ty in
        expect s (Punct ',');
        let b = parse_value s ty in
        (Icmp (p, a, b), Ltype.I1)
    | "fcmp" ->
        let p =
          match cur s with
          | Word w -> (
              advance s;
              match fcmp_of_string w with
              | Some p -> p
              | None -> fail "unknown fcmp predicate %s" w)
          | t -> fail "expected fcmp predicate, found %s" (token_str t)
        in
        let ty = parse_ty s in
        let a = parse_value s ty in
        expect s (Punct ',');
        let b = parse_value s ty in
        (Fcmp (p, a, b), Ltype.I1)
    | "alloca" ->
        let ty = parse_ty s in
        let count =
          if eat s (Punct ',') then begin
            expect s (Word "i64");
            match cur s with
            | Int n -> advance s; n
            | t -> fail "expected alloca count, found %s" (token_str t)
          end
          else 1
        in
        (Alloca (ty, count), Ltype.ptr ty)
    | "load" ->
        let ty = parse_ty s in
        expect s (Punct ',');
        let p = parse_tv s in
        (Load (ty, p), ty)
    | "store" ->
        let v = parse_tv s in
        expect s (Punct ',');
        let p = parse_tv s in
        (Store (v, p), Ltype.Void)
    | "getelementptr" ->
        let inbounds = eat s (Word "inbounds") in
        let src_ty = parse_ty s in
        expect s (Punct ',');
        let base = parse_tv s in
        let rec idxs acc =
          if eat s (Punct ',') then idxs (parse_tv s :: acc)
          else List.rev acc
        in
        let idxs = idxs [] in
        (* reconstruct the result pointer type like the builder does *)
        let rec walk ty = function
          | [] -> ty
          | idx :: rest ->
              walk (gep_step ty (Lvalue.const_int_value idx)) rest
        in
        let pointee =
          match idxs with [] -> src_ty | _ :: rest -> walk src_ty rest
        in
        let rty =
          if Ltype.is_opaque_pointer (Lvalue.type_of base) then
            Ltype.opaque_ptr
          else Ltype.ptr pointee
        in
        (Gep { inbounds; src_ty; base; idxs }, rty)
    | "select" ->
        let c = parse_tv s in
        expect s (Punct ',');
        let a = parse_tv s in
        expect s (Punct ',');
        let b = parse_tv s in
        (Select (c, a, b), Lvalue.type_of a)
    | "phi" ->
        let ty = parse_ty s in
        let rec go acc =
          expect s (Punct '[');
          let v = parse_value s ty in
          expect s (Punct ',');
          let l =
            match cur s with
            | Pct l -> advance s; l
            | t -> fail "expected phi predecessor label, found %s" (token_str t)
          in
          expect s (Punct ']');
          if eat s (Punct ',') then go ((v, Sym.intern l) :: acc)
          else List.rev ((v, Sym.intern l) :: acc)
        in
        (Phi (go []), ty)
    | "call" ->
        let ret = parse_ty s in
        let callee =
          match cur s with
          | At f -> advance s; f
          | t -> fail "expected callee, found %s" (token_str t)
        in
        expect s (Punct '(');
        let rec go acc =
          if eat s (Punct ')') then List.rev acc
          else
            let v = parse_tv s in
            if eat s (Punct ',') then go (v :: acc)
            else begin
              expect s (Punct ')');
              List.rev (v :: acc)
            end
        in
        (Call { callee; ret; args = go [] }, ret)
    | "extractvalue" ->
        let agg = parse_tv s in
        let path, ty = agg_path agg in
        (ExtractValue (agg, path), ty)
    | "insertvalue" ->
        let agg = parse_tv s in
        expect s (Punct ',');
        let v = parse_tv s in
        (InsertValue (agg, v, fst (agg_path agg)), Lvalue.type_of agg)
    | "freeze" ->
        let v = parse_tv s in
        (Freeze v, Lvalue.type_of v)
    | "ret" ->
        if cur s = Word "void" then begin
          advance s;
          (Ret None, Ltype.Void)
        end
        else
          let v = parse_tv s in
          (Ret (Some v), Ltype.Void)
    | "br" ->
        if cur s = Word "label" then begin
          advance s;
          match cur s with
          | Pct l -> advance s; (Br (Sym.intern l), Ltype.Void)
          | t -> fail "expected label, found %s" (token_str t)
        end
        else begin
          let c = parse_tv s in
          expect s (Punct ',');
          expect s (Word "label");
          let t =
            match cur s with
            | Pct l -> advance s; l
            | t -> fail "expected label, found %s" (token_str t)
          in
          expect s (Punct ',');
          expect s (Word "label");
          let e =
            match cur s with
            | Pct l -> advance s; l
            | t -> fail "expected label, found %s" (token_str t)
          in
          (CondBr (c, Sym.intern t, Sym.intern e), Ltype.Void)
        end
    | "switch" ->
        let v = parse_tv s in
        expect s (Punct ',');
        expect s (Word "label");
        let d =
          match cur s with
          | Pct l -> advance s; l
          | t -> fail "expected label, found %s" (token_str t)
        in
        expect s (Punct '[');
        let rec go acc =
          if eat s (Punct ']') then List.rev acc
          else begin
            let _cty = parse_ty s in
            let c =
              match cur s with
              | Int c -> advance s; c
              | t -> fail "expected case constant, found %s" (token_str t)
            in
            expect s (Punct ',');
            expect s (Word "label");
            let l =
              match cur s with
              | Pct l -> advance s; l
              | t -> fail "expected label, found %s" (token_str t)
            in
            go ((c, Sym.intern l) :: acc)
          end
        in
        (Switch (v, Sym.intern d, go []), Ltype.Void)
    | "unreachable" -> (Unreachable, Ltype.Void)
    | kw -> (
        match ibinop_of_string kw with
        | Some o -> binop (fun a b -> IBin (o, a, b))
        | None -> (
            match fbinop_of_string kw with
            | Some o -> binop (fun a b -> FBin (o, a, b))
            | None -> (
                match cast_of_string kw with
                | Some c ->
                    let v = parse_tv s in
                    expect s (Word "to");
                    let ty = parse_ty s in
                    (Cast (c, v, ty), ty)
                | None -> fail "unknown instruction %s" kw)))
  in
  let imeta = parse_imeta s in
  { Linstr.result = Sym.intern result; ty; op; imeta }

(* ------------------------------------------------------------------ *)
(* Functions / module                                                 *)
(* ------------------------------------------------------------------ *)

let parse_func s : Lmodule.func =
  (* "define" consumed *)
  let ret_ty = parse_ty s in
  let fname =
    match cur s with
    | At f -> advance s; f
    | t -> fail "expected function name, found %s" (token_str t)
  in
  expect s (Punct '(');
  let rec params acc =
    if eat s (Punct ')') then List.rev acc
    else begin
      let pty = parse_ty s in
      let pname =
        match cur s with
        | Pct r -> advance s; r
        | t -> fail "expected parameter name, found %s" (token_str t)
      in
      let pattrs = parse_attrs s in
      let p = { Lmodule.pname; pty; pattrs } in
      if eat s (Punct ',') then params (p :: acc)
      else begin
        expect s (Punct ')');
        List.rev (p :: acc)
      end
    end
  in
  let params = params [] in
  let fattrs = parse_attrs s in
  expect s (Punct '{');
  let rec blocks acc =
    if eat s (Punct '}') then List.rev acc
    else
      match (cur s, peek_at s 1) with
      | Word label, Punct ':' ->
          advance s;
          advance s;
          let rec insts acc2 =
            match (cur s, peek_at s 1) with
            | Punct '}', _ | Word _, Punct ':' -> List.rev acc2
            | _ -> insts (parse_inst s :: acc2)
          in
          let insts = insts [] in
          blocks ({ Lmodule.label = Sym.intern label; insts } :: acc)
      | t, _ -> fail "expected block label, found %s" (token_str t)
  in
  let blocks = blocks [] in
  { Lmodule.fname; ret_ty; params; blocks; fattrs }

let parse_module (src : string) : Lmodule.t =
  let s = make ~pass:"llvmir.parser" ~show:token_str (tokenize src) in
  let funcs = ref [] in
  let globals = ref [] in
  let decls = ref [] in
  let rec go () =
    match cur s with
    | Eof -> ()
    | Word "define" ->
        advance s;
        funcs := parse_func s :: !funcs;
        go ()
    | Word "declare" ->
        advance s;
        let dret = parse_ty s in
        let dname =
          match cur s with
          | At f -> advance s; f
          | t -> fail "expected declared name, found %s" (token_str t)
        in
        expect s (Punct '(');
        let rec args acc =
          if eat s (Punct ')') then List.rev acc
          else
            let t = parse_ty s in
            if eat s (Punct ',') then args (t :: acc)
            else begin
              expect s (Punct ')');
              List.rev (t :: acc)
            end
        in
        decls := { Lmodule.dname; dret; dargs = args [] } :: !decls;
        go ()
    | At gname ->
        advance s;
        expect s (Punct '=');
        let gconst = eat s (Word "constant") in
        if not gconst then expect s (Word "global");
        let gty = parse_ty s in
        let ginit = literal s gty in
        globals := { Lmodule.gname; gty; ginit; gconst } :: !globals;
        go ()
    | t -> fail "unexpected top-level token %s" (token_str t)
  in
  go ();
  {
    Lmodule.mname = "parsed";
    funcs = List.rev !funcs;
    globals = List.rev !globals;
    decls = !decls;
  }
