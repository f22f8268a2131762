(** Tests for the baseline HLS C++ flow: the emitter, the mini-C
    lexer/parser, and the Clang-style code generator. *)

module K = Workloads.Kernels
open Llvmir

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Hlscpp.Clex.tokenize "int x = 42; // comment\nfloat y = 1.5f;" in
  let has t = Array.exists (( = ) t) toks in
  Alcotest.(check bool) "int kw" true (has (Hlscpp.Clex.Tident "int"));
  Alcotest.(check bool) "42" true (has (Hlscpp.Clex.Tint 42));
  Alcotest.(check bool) "float lit with suffix" true
    (has (Hlscpp.Clex.Tfloat (1.5, true)));
  Alcotest.(check bool) "comment skipped" true
    (not (has (Hlscpp.Clex.Tident "comment")))

let test_lexer_pragma () =
  let toks = Hlscpp.Clex.tokenize "#pragma HLS pipeline II=3\nx = 1;" in
  Alcotest.(check bool) "pragma token" true
    (Array.exists
       (function Hlscpp.Clex.Tpragma p -> Str_find.contains p "pipeline" | _ -> false)
       toks)

let test_lexer_two_char_ops () =
  let toks = Hlscpp.Clex.tokenize "a += b; c <= d; e++;" in
  let has p = Array.exists (( = ) (Hlscpp.Clex.Tpunct p)) toks in
  Alcotest.(check bool) "+=" true (has "+=");
  Alcotest.(check bool) "<=" true (has "<=");
  Alcotest.(check bool) "++" true (has "++")

(* The oracle: the lexer as it was before it matched operator bytes,
   taking a two-byte [String.sub] at every punctuation byte and
   scanning the list of two-character operators.  Its literals follow
   the one numeric rule: a [.] or an exponent with no digits after it
   is not part of the literal. *)
let oracle_two_char_ops =
  [ "<="; ">="; "=="; "!="; "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/="; "<<"; ">>" ]

let oracle_tokenize (src : string) : Hlscpp.Clex.token array =
  let open Hlscpp.Clex in
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
      let digit_at k = match peek k with Some d -> is_digit d | None -> false in
      if !i < n && src.[!i] = '.' && digit_at 1 then begin
        is_float := true;
        incr i;
        let _ = read_while is_digit in
        ()
      end;
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        let sign = match peek 1 with Some ('+' | '-') -> 1 | _ -> 0 in
        if digit_at (1 + sign) then begin
          is_float := true;
          i := !i + 1 + sign;
          let _ = read_while is_digit in
          ()
        end
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
      else toks := Tint (int_of_string lit) :: !toks
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      if List.mem two oracle_two_char_ops then begin
        i := !i + 2;
        toks := Tpunct two :: !toks
      end
      else begin
        incr i;
        toks := Tpunct (String.make 1 c) :: !toks
      end
    end
  done;
  Array.of_list (List.rev (Teof :: !toks))

(* Both lexers on one input: the same tokens, or the same exception *)
let lex_agrees src =
  let run f = match f src with toks -> Ok toks | exception e -> Error (Printexc.to_string e) in
  run Hlscpp.Clex.tokenize = run oracle_tokenize

(* Strings over C's punctuation, with some identifier, digit, blank
   and comment bytes mixed in *)
let arb_punct_source =
  let alphabet = "<>=!&|+-*/%^~?:;,.()[]{}#  \nx1e" in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
        (int_bound 40))

let prop_lexer_oracle_random =
  QCheck.Test.make ~name:"lexer = oracle on punctuation" ~count:2000 arb_punct_source
    lex_agrees

let test_lexer_oracle_kernels () =
  List.iter
    (fun k ->
      List.iter
        (fun d ->
          let cpp = Hlscpp.Emit.emit_module (Mhir.Canonicalize.run (k.K.build d)) in
          Alcotest.(check bool) (k.K.kname ^ " tokens = oracle") true (lex_agrees cpp))
        [ K.no_directives; K.pipelined ])
    (K.all ())

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_function () =
  let file =
    Hlscpp.Cparse.parse_file
      {|void f(float A[4][4], int n) {
  float acc = 0.0f;
  for (int i = 0; i < 4; i++) {
    acc = acc + A[i][i];
  }
  A[0][0] = acc;
}|}
  in
  Alcotest.(check int) "one function" 1 (List.length file);
  let f = List.hd file in
  Alcotest.(check string) "name" "f" f.Hlscpp.Cast.fname;
  Alcotest.(check int) "two params" 2 (List.length f.Hlscpp.Cast.params);
  Alcotest.(check (list int)) "array dims" [ 4; 4 ]
    (List.hd f.Hlscpp.Cast.params).Hlscpp.Cast.dims

let test_parse_pragmas () =
  let p = Hlscpp.Cparse.parse_pragma "pragma HLS pipeline II=4" in
  Alcotest.(check bool) "pipeline II" true (p = Hlscpp.Cast.Ppipeline 4);
  let u = Hlscpp.Cparse.parse_pragma "pragma HLS unroll factor=8" in
  Alcotest.(check bool) "unroll factor" true (u = Hlscpp.Cast.Punroll 8);
  let u0 = Hlscpp.Cparse.parse_pragma "pragma HLS unroll" in
  Alcotest.(check bool) "bare unroll = full" true (u0 = Hlscpp.Cast.Punroll 0);
  match Hlscpp.Cparse.parse_pragma
          "pragma HLS array_partition variable=Buf cyclic factor=4 dim=2" with
  | Hlscpp.Cast.Ppartition { variable; kind; factor; dim } ->
      Alcotest.(check string) "variable keeps case" "Buf" variable;
      Alcotest.(check string) "kind" "cyclic" kind;
      Alcotest.(check int) "factor" 4 factor;
      Alcotest.(check int) "dim" 2 dim
  | _ -> Alcotest.fail "partition pragma not recognized"

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  let file = Hlscpp.Cparse.parse_file "int f() { return 1 + 2 * 3; }" in
  let f = List.hd file in
  match f.Hlscpp.Cast.body with
  | [ Hlscpp.Cast.Sreturn (Some (Hlscpp.Cast.Ebin ("+", Hlscpp.Cast.Eint 1, Hlscpp.Cast.Ebin ("*", _, _)))) ] ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_rejects_malformed_for () =
  Alcotest.(check bool) "for with mismatched variable rejected" true
    (try
       ignore
         (Hlscpp.Cparse.parse_file "void f() { for (int i = 0; j < 4; i++) { } }");
       false
     with Support.Err.Compile_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Codegen                                                            *)
(* ------------------------------------------------------------------ *)

let test_codegen_scalar_function () =
  let m =
    Hlscpp.Ccodegen.compile
      {|int f(int a, int b) {
  int c = a * b;
  if (c > 100) {
    c = 100;
  }
  return c;
}|}
  in
  Lverifier.verify_module m;
  let run a b =
    let st = Linterp.create m in
    match Linterp.run st "f" [ Linterp.RInt a; Linterp.RInt b ] with
    | Some (Linterp.RInt v) -> v
    | _ -> -1
  in
  Alcotest.(check int) "6*7" 42 (run 6 7);
  Alcotest.(check int) "clamped" 100 (run 20 20)

let test_codegen_loop_and_arrays () =
  let m =
    Hlscpp.Ccodegen.compile
      {|void scale(float x[8], float y[8]) {
  for (int i = 0; i < 8; i++) {
    y[i] = x[i] * 2.0f;
  }
}|}
  in
  Lverifier.verify_module m;
  let st = Linterp.create m in
  let xa = Linterp.alloc_floats st 8 in
  let ya = Linterp.alloc_floats st 8 in
  Linterp.write_floats st xa (Array.init 8 float_of_int);
  ignore (Linterp.run st "scale" [ Linterp.RPtr xa; Linterp.RPtr ya ]);
  let y = Linterp.read_floats st ya 8 in
  Alcotest.(check (float 1e-9)) "y[3] = 6" 6.0 y.(3);
  Alcotest.(check (float 1e-9)) "y[7] = 14" 14.0 y.(7)

let test_codegen_is_clang_shaped () =
  (* locals through allocas, markers in loop headers, typed pointers *)
  let m =
    Hlscpp.Ccodegen.compile
      {|void f(float x[8]) {
  for (int i = 0; i < 8; i++) {
#pragma HLS pipeline II=1
    x[i] = x[i] + 1.0f;
  }
}|}
  in
  let text = Lprinter.module_to_string m in
  Alcotest.(check bool) "alloca for loop counter" true
    (Str_find.contains text "alloca i32");
  Alcotest.(check bool) "pipeline marker call" true
    (Str_find.contains text "_ssdm_op_SpecPipeline");
  Alcotest.(check bool) "tripcount marker call" true
    (Str_find.contains text "_ssdm_op_SpecLoopTripCount");
  Alcotest.(check bool) "no opaque pointers" true
    (Hls_backend.Adaptor_markers.legality_errors m = [])

let test_codegen_compound_assign () =
  let m =
    Hlscpp.Ccodegen.compile
      {|int f(int x) {
  int s = 1;
  s += x;
  s *= 2;
  return s;
}|}
  in
  let st = Linterp.create m in
  (match Linterp.run st "f" [ Linterp.RInt 4 ] with
  | Some (Linterp.RInt 10) -> ()
  | Some (Linterp.RInt v) -> Alcotest.failf "expected 10, got %d" v
  | _ -> Alcotest.fail "bad result")

let test_codegen_int_float_conversions () =
  let m =
    Hlscpp.Ccodegen.compile
      {|float f(int n) {
  float s = 0.0f;
  s = s + n;
  return s * 1.5f;
}|}
  in
  let st = Linterp.create m in
  (match Linterp.run st "f" [ Linterp.RInt 4 ] with
  | Some (Linterp.RFloat v) -> Alcotest.(check (float 1e-6)) "4 * 1.5" 6.0 v
  | _ -> Alcotest.fail "bad result")

(* ------------------------------------------------------------------ *)
(* Emitter + round-trip                                               *)
(* ------------------------------------------------------------------ *)

let test_emit_contains_pragmas () =
  let k = K.gemm () in
  let d = K.optimized ~factor:4 ~parts:[ ("A", 2); ("B", 1) ] () in
  let cpp = Hlscpp.Emit.emit_module (k.K.build d) in
  Alcotest.(check bool) "pipeline pragma" true
    (Str_find.contains cpp "#pragma HLS pipeline");
  Alcotest.(check bool) "unroll pragma" true
    (Str_find.contains cpp "#pragma HLS unroll");
  Alcotest.(check bool) "partition pragma" true
    (Str_find.contains cpp "#pragma HLS array_partition variable=A");
  Alcotest.(check bool) "array params" true
    (Str_find.contains cpp "float A[16][16]")

let test_cpp_roundtrip_all_kernels () =
  (* mhir -> C++ -> LLVM must match the mhir interpreter exactly *)
  List.iter
    (fun k ->
      let m = k.K.build K.pipelined in
      let cpp = Hlscpp.Emit.emit_module (Mhir.Canonicalize.run m) in
      let lm = Hlscpp.Ccodegen.compile cpp in
      Lverifier.verify_module lm;
      let lm = fst (Pass.run_pipeline Pass.default_pipeline lm) in
      let reference = Flow.run_reference k in
      let got = Flow.run_llvm k lm in
      let err, issues = Flow.compare_outputs k ~what:"cpp" reference got in
      if issues <> [] then
        Alcotest.failf "%s: %s" k.K.kname (List.hd issues);
      Alcotest.(check bool) (k.K.kname ^ " error small") true (err < 1e-4))
    (K.all ())

let test_cpp_flow_is_hls_legal () =
  List.iter
    (fun k ->
      let lm, _, _ = Flow.hls_cpp_frontend (k.K.build K.pipelined) in
      Alcotest.(check bool)
        (k.K.kname ^ " C++ round-trip is HLS-legal")
        true
        (Hls_backend.Adaptor_markers.legality_errors lm = []))
    (K.all ())

let suite =
  [
    Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer pragma" `Quick test_lexer_pragma;
    Alcotest.test_case "lexer two-char ops" `Quick test_lexer_two_char_ops;
    QCheck_alcotest.to_alcotest prop_lexer_oracle_random;
    Alcotest.test_case "lexer = oracle on kernels" `Quick test_lexer_oracle_kernels;
    Alcotest.test_case "parse function" `Quick test_parse_function;
    Alcotest.test_case "parse pragmas" `Quick test_parse_pragmas;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse rejects malformed for" `Quick test_parse_rejects_malformed_for;
    Alcotest.test_case "codegen scalar function" `Quick test_codegen_scalar_function;
    Alcotest.test_case "codegen loop + arrays" `Quick test_codegen_loop_and_arrays;
    Alcotest.test_case "codegen is clang-shaped" `Quick test_codegen_is_clang_shaped;
    Alcotest.test_case "codegen compound assign" `Quick test_codegen_compound_assign;
    Alcotest.test_case "codegen conversions" `Quick test_codegen_int_float_conversions;
    Alcotest.test_case "emit contains pragmas" `Quick test_emit_contains_pragmas;
    Alcotest.test_case "C++ roundtrip (all kernels)" `Quick test_cpp_roundtrip_all_kernels;
    Alcotest.test_case "C++ flow is HLS-legal" `Quick test_cpp_flow_is_hls_legal;
  ]
