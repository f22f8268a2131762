(** Malformed text input: every class of bad source a mutation fuzz of
    the CLI's inputs turned up is answered with an HLS000 diagnostic,
    never an uncaught exception; and the non-finite float literals and
    the integer extremes the printers emit parse back. *)

open Llvmir
module H = Mhls_cli.Handlers
module P = Mhls_serve.Protocol

(* [s] with the first occurrence of [sub] replaced by [by]. *)
let replace_first s sub by =
  let i = Str_find.find s sub in
  String.sub s 0 i ^ by
  ^ String.sub s (i + String.length sub)
      (String.length s - i - String.length sub)

(* [s] with [sub] replaced by [by] at its first occurrence after
   [anchor]. *)
let replace_after s anchor sub by =
  let i = Str_find.find s anchor in
  String.sub s 0 i
  ^ replace_first (String.sub s i (String.length s - i)) sub by

let emit kernel stage =
  match H.emit ~kernel ~stage ~directives:P.pipelined_directives with
  | Ok text -> text
  | Error _ -> Alcotest.failf "emit %s failed" kernel

(* the inputs the fuzz mutated: [mhlsc emit gemm --stage llvm] and the
   generic form of fir *)
let gemm_ll () = emit "gemm" H.Llvm
let fir_mlir () = emit "fir" H.Mhir_generic

let check_hls000 what = function
  | Error ds when List.exists (fun (d : Support.Diag.t) -> d.rule = "HLS000") ds
    ->
      ()
  | Error ds ->
      Alcotest.failf "%s: no HLS000 among %d diagnostics" what (List.length ds)
  | Ok _ -> Alcotest.failf "%s: accepted" what

let opt_req source =
  {
    P.op_source = Some source;
    op_synth = None;
    op_passes = None;
    op_parallel = false;
    op_jobs = 1;
    op_parsafe = false;
    op_json = false;
  }

(* opt, lint and adapt on one malformed LLVM IR text *)
let check_ll what source =
  check_hls000 (what ^ ": opt") (H.opt (opt_req source));
  (match
     H.lint
       {
         P.l_kernel = None;
         l_source = Some source;
         l_directives = P.pipelined_directives;
         l_rules = None;
         l_werror = false;
         l_top = None;
         l_passes = None;
         l_disable = [];
       }
   with
  | Ok r -> check_hls000 (what ^ ": lint") (Error r.P.lr_diags)
  | Error _ -> Alcotest.failf "%s: lint failed instead of reporting" what);
  check_hls000 (what ^ ": adapt")
    (H.adapt ~source ~strict:true ~passes:None ~disable:[] ())

let synth_mlir ?(flow = P.default_flow) source =
  H.synth_mlir ~source ~top:None ~flow ~sched:P.default_sched
    ~clock_ns:P.default_clock_ns ()

let test_int_past_max_int () =
  let big = "99999999999999999999999" in
  check_ll "i64 literal" (replace_first (gemm_ll ()) ", 16\n" (", " ^ big ^ "\n"));
  let fir = fir_mlir () in
  check_hls000 "mhir literal" (synth_mlir (replace_first fir "step = 1" ("step = " ^ big)));
  check_hls000 "mhir SSA id" (synth_mlir (replace_first fir "%0" ("%" ^ big)));
  check_hls000 "memref dim" (synth_mlir (replace_first fir "memref<" "memref<6ax"))

let test_unknown_predicate () =
  let ll = gemm_ll () in
  check_ll "icmp predicate" (replace_first ll "icmp slt" "icmp slt4");
  check_ll "fcmp predicate"
    (replace_first ll "icmp slt i64" "fcmp olt4 float")

let test_missing_attribute () =
  let fir = fir_mlir () in
  List.iter
    (fun (what, sub, by) ->
      check_hls000 what (synth_mlir (replace_first fir sub by)))
    [
      ("no lower_map", "lower_map =", "lower_mop =");
      ("no upper_map", "upper_map =", "upper_mop =");
      ("no step", "step =", "stop =");
      ("no load map", "{map =", "{mop =");
      ("mistyped map", "{map = ", "{map = 7, mop = ");
    ];
  check_hls000 "no store map"
    (synth_mlir (replace_after fir "\"affine.store\"" "{map =" "{mop ="))

let test_cpp_flow_infinite_constant () =
  let src = replace_first (fir_mlir ()) "value = 0.0" "value = 1e999" in
  check_hls000 "synth-mlir --flow cpp" (synth_mlir ~flow:"cpp" src)

(* An aggregate index that the parser cannot type: a struct index out
   of range, an index into a scalar, a struct index that is not a
   constant *)
let test_aggregate_index () =
  let ll = emit "jacobi2d" H.Llvm in
  let desc = "extractvalue { ptr, ptr, i64, [2 x i64], [2 x i64] } %t5, 1\n" in
  check_ll "struct index out of range"
    (replace_first ll desc
       "extractvalue { ptr, ptr, i64, [2 x i64], [2 x i64] } %t5, 11\n");
  check_ll "index into a scalar"
    "define i32 @f(i32 %x) {\nentry:\n  %y = extractvalue i32 %x, 0\n  ret i32 %y\n}\n";
  check_ll "struct index not a constant"
    ("define i32 @f(ptr %p, i32 %k) {\nentry:\n"
   ^ "  %q = getelementptr { i32, i32 }, ptr %p, i64 0, i32 %k\n"
   ^ "  %v = load i32, ptr %q\n  ret i32 %v\n}\n")

(* An extractvalue or insertvalue index past an array's length: each
   used to print back unchanged.  A GEP index may pass it. *)
let test_aggregate_array_range () =
  let fn body =
    Printf.sprintf
      "define [2 x i64] @f([2 x i64] %%a) {\nentry:\n  %s\n  ret [2 x i64] %%a\n}\n"
      body
  in
  check_ll "extractvalue past the array" (fn "%b = extractvalue [2 x i64] %a, 7");
  check_ll "insertvalue past the array"
    (fn "%b = insertvalue [2 x i64] %a, i64 3, 9");
  let gep =
    "define i64 @f(ptr %p) {\nentry:\n"
    ^ "  %q = getelementptr [2 x i64], ptr %p, i64 0, i64 7\n"
    ^ "  %v = load i64, ptr %q\n  ret i64 %v\n}\n"
  in
  match H.opt (opt_req gep) with
  | Ok _ -> ()
  | Error ds ->
      Alcotest.failf "a GEP past the array was rejected: %s"
        (String.concat "; " (List.map Support.Diag.to_string ds))

(* A literal that does not fit its type, and an insertvalue of the
   wrong element type: each used to print back unchanged *)
let test_mistyped_literal () =
  let fn ty body =
    Printf.sprintf "define %s @f(%s %%a) {\nentry:\n  %s\n  ret %s %%b\n}\n" ty
      ty body ty
  in
  List.iter
    (fun (what, ty, body) -> check_ll what (fn ty body))
    [
      ("float literal for i32", "i32", "%b = add i32 %a, 1.5");
      ("integer literal for float", "float", "%b = fadd float 2, 1.5");
      ( "insertvalue element type",
        "{ i32, i32 }",
        "%b = insertvalue { i32, i32 } %a, float 1.5, 0" );
      ("true outside i1", "i32", "%b = add i32 %a, true");
      ("null outside pointers", "i32", "%b = add i32 %a, null");
      ("inf outside floats", "i32", "%b = add i32 %a, inf");
    ]

(* A function named like the start of a C float literal: its C++ name
   is a literal and a word, which the C parser reports *)
let test_cpp_flow_exponent_name () =
  let src = replace_first (fir_mlir ()) "@fir" "@5e" in
  check_hls000 "synth-mlir --flow cpp" (synth_mlir ~flow:"cpp" src)

(* ------------------------------------------------------------------ *)
(* Literals through the three tokenizers                              *)
(* ------------------------------------------------------------------ *)

(* A token as the table writes it, whichever tokenizer read it; the end
   token is left out *)
type tok = I of int | F of float | Fsingle of float | W of string | S of string | P of string

let mhir_toks text =
  Array.to_list (Mhir.Parser.tokenize text)
  |> List.filter_map (function
       | Mhir.Parser.Int i -> Some (I i)
       | Float f -> Some (F f)
       | Word w -> Some (W w)
       | Str s -> Some (S s)
       | Punct c -> Some (P (String.make 1 c))
       | Pct i -> Some (W ("%" ^ string_of_int i))
       | At a -> Some (W ("@" ^ a))
       | Caret c -> Some (W ("^" ^ c))
       | Arrow -> Some (P "->")
       | Eof -> None)

let llvm_toks text =
  Array.to_list (Lparser.tokenize text)
  |> List.filter_map (function
       | Lparser.Int i -> Some (I i)
       | Float f -> Some (F f)
       | Word w -> Some (W w)
       | Str s -> Some (S s)
       | Punct c -> Some (P (String.make 1 c))
       | Pct r -> Some (W ("%" ^ r))
       | At a -> Some (W ("@" ^ a))
       | Bang -> Some (P "!")
       | Eof -> None)

let c_toks text =
  Array.to_list (Hlscpp.Clex.tokenize text)
  |> List.filter_map (function
       | Hlscpp.Clex.Tint i -> Some (I i)
       | Tfloat (f, false) -> Some (F f)
       | Tfloat (f, true) -> Some (Fsingle f)
       | Tident w -> Some (W w)
       | Tpragma p -> Some (W ("#" ^ p))
       | Tpunct p -> Some (P p)
       | Teof -> None)

(* [None]: the text is a compile error (HLS000 on the command line) *)
let lexed f text =
  match f text with
  | toks -> Some toks
  | exception Support.Err.Compile_error _ -> None

let test_literal_table () =
  let min_lit = string_of_int min_int and max_lit = string_of_int max_int in
  let q = "\"" in
  let rows =
    (* text, then what mhir, LLVM IR and C read *)
    [
      ("0", Some [ I 0 ], Some [ I 0 ], Some [ I 0 ]);
      ("-0", Some [ I 0 ], Some [ I 0 ], Some [ P "-"; I 0 ]);
      (max_lit, Some [ I max_int ], Some [ I max_int ], Some [ I max_int ]);
      (* min_int as the mhir and LLVM printers write it *)
      (min_lit, Some [ I min_int ], Some [ I min_int ], None);
      (* ... and as the C++ emitter does *)
      ( Printf.sprintf "(-%s - 1)" max_lit,
        Some [ P "("; I (-max_int); P "-"; I 1; P ")" ],
        Some [ P "("; I (-max_int); P "-"; I 1; P ")" ],
        Some [ P "("; P "-"; I max_int; P "-"; I 1; P ")" ] );
      ("99999999999999999999", None, None, None);
      ("1.5", Some [ F 1.5 ], Some [ F 1.5 ], Some [ F 1.5 ]);
      ("1.5f", Some [ F 1.5; W "f" ], Some [ F 1.5; W "f" ], Some [ Fsingle 1.5 ]);
      ("1e+30", Some [ F 1e30 ], Some [ F 1e30 ], Some [ F 1e30 ]);
      ("1e999", Some [ F infinity ], Some [ F infinity ], Some [ F infinity ]);
      ("1e", Some [ I 1; W "e" ], Some [ I 1; W "e" ], Some [ I 1; W "e" ]);
      ("1.", Some [ I 1; P "." ], Some [ I 1; P "." ], Some [ I 1; P "." ]);
      ( q ^ "a\\" ^ q ^ "b\\n\\t" ^ q,
        Some [ S "a\"b\n\t" ],
        Some [ S "a\"b\n\t" ],
        Some [ P q; W "a"; P "\\"; P q; W "b"; P "\\"; W "n"; P "\\"; W "t"; P q ] );
      (q ^ "ab", None, None, Some [ P q; W "ab" ]);
      (q ^ "ab\\", None, None, Some [ P q; W "ab"; P "\\" ]);
    ]
  in
  let show = function
    | None -> "compile error"
    | Some toks ->
        String.concat " "
          (List.map
             (function
               | I i -> string_of_int i
               | F f -> Printf.sprintf "%h" f
               | Fsingle f -> Printf.sprintf "%hf" f
               | W w -> "w:" ^ w
               | S s -> Printf.sprintf "%S" s
               | P p -> "p:" ^ p)
             toks)
  in
  List.iter
    (fun (text, mhir, llvm, c) ->
      List.iter
        (fun (front, f, want) ->
          Alcotest.(check string) (front ^ " " ^ String.escaped text) (show want)
            (show (lexed f text)))
        [ ("mhir", mhir_toks, mhir); ("llvm", llvm_toks, llvm); ("c", c_toks, c) ])
    rows

(* ------------------------------------------------------------------ *)
(* Mutants of the printed text of the 14 kernels                      *)
(* ------------------------------------------------------------------ *)

let mutation_bytes = "%@^!#;{}()[]<>0123456789e.-\"\n"

(* One seeded mutation of [text]: a byte deleted, a byte duplicated, a
   byte replaced from [mutation_bytes], or the text cut short *)
let mutate rng text =
  let n = String.length text in
  let i = Random.State.int rng n in
  let pre = String.sub text 0 i and post k = String.sub text (i + k) (n - i - k) in
  match Random.State.int rng 4 with
  | 0 -> pre ^ post 1
  | 1 -> pre ^ String.make 1 text.[i] ^ post 0
  | 2 ->
      let c = mutation_bytes.[Random.State.int rng (String.length mutation_bytes)] in
      pre ^ String.make 1 c ^ post 1
  | _ -> pre

let kernel_texts stage = List.map (fun k -> emit k.Workloads.Kernels.kname stage) (Workloads.Kernels.all ())

(* [count] mutants of [texts] through [front]: each returns or raises a
   compile error, nothing else *)
let check_mutants ~seed ~count what texts front =
  let texts = Array.of_list texts in
  let rng = Random.State.make [| seed |] in
  for k = 1 to count do
    let text = mutate rng texts.(Random.State.int rng (Array.length texts)) in
    match front text with
    | () | (exception Support.Err.Compile_error _) -> ()
    | exception e ->
        Alcotest.failf "%s mutant %d raised %s on:\n%s" what k
          (Printexc.to_string e) text
  done

let test_mutants_front_ends () =
  let seed = 42 and count = 1000 in
  check_mutants ~seed ~count "mhir" (kernel_texts H.Mhir_generic) (fun t ->
      Mhir.Verifier.verify_module (Mhir.Parser.parse_module t));
  check_mutants ~seed ~count "LLVM IR"
    (kernel_texts H.Llvm @ kernel_texts H.Adapted)
    (fun t -> Lverifier.verify_module (Lparser.parse_module t));
  check_mutants ~seed ~count "C++" (kernel_texts H.Cpp) (fun t ->
      Lverifier.verify_module (Hlscpp.Ccodegen.compile t))

(* The same for mhir end to end: parse and verify, then both
   front-ends and both estimators under the driver's guard *)
let test_mutants_end_to_end () =
  check_mutants ~seed:5 ~count:4000 "mhir end to end" (kernel_texts H.Mhir_generic)
    (fun t ->
      let m = Mhir.Parser.parse_module t in
      Mhir.Verifier.verify_module m;
      let top =
        match m.Mhir.Ir.funcs with f :: _ -> f.Mhir.Ir.fname | [] -> "none"
      in
      List.iter
        (fun flow ->
          ignore
            (Mhls_driver.Driver.guard ~label:top (fun () ->
                 let lm =
                   match flow with
                   | Flow.Direct_ir -> (
                       match Flow.direct_ir_frontend m with
                       | Ok (lm, _, _) -> Some lm
                       | Error _ -> None)
                   | Flow.Hls_cpp ->
                       let lm, _, _ = Flow.hls_cpp_frontend m in
                       Some lm
                 in
                 Option.iter
                   (fun lm ->
                     List.iter
                       (fun sched ->
                         ignore (Hls_backend.Backend.synthesize ~sched ~top lm))
                       [ Hls_backend.Backend.Static; Hls_backend.Backend.Dynamic ])
                   lm)))
        [ Flow.Direct_ir; Flow.Hls_cpp ])

(* ------------------------------------------------------------------ *)
(* Non-finite floats: print . parse . print = print                    *)
(* ------------------------------------------------------------------ *)

let non_finite = [ infinity; neg_infinity; Float.nan ]

let test_llvm_non_finite_round_trip () =
  let b = Lbuilder.create () in
  Lbuilder.start_block b "entry";
  let x = Lvalue.reg "x" Ltype.Float in
  let v =
    List.fold_left (fun acc c -> Lbuilder.fbin b Linstr.FAdd acc (Lvalue.cf c))
      x non_finite
  in
  Lbuilder.ret b (Some v);
  let f =
    {
      Lmodule.fname = "f";
      ret_ty = Ltype.Float;
      params = [ { Lmodule.pname = "x"; pty = Ltype.Float; pattrs = [] } ];
      blocks = Lbuilder.finish b;
      fattrs = [];
    }
  in
  let globals =
    List.mapi
      (fun i c ->
        {
          Lmodule.gname = Printf.sprintf "g%d" i;
          gty = Ltype.Float;
          ginit = Some (Lvalue.CFloat (c, Ltype.Float));
          gconst = true;
        })
      non_finite
  in
  (* the parser names every module "parsed" *)
  let text =
    Lprinter.module_to_string
      { Lmodule.mname = "parsed"; funcs = [ f ]; globals; decls = [] }
  in
  Alcotest.(check string) "print . parse . print" text
    (Lprinter.module_to_string (Lparser.parse_module text))

let test_mhir_non_finite_round_trip () =
  let b = Mhir.Builder.create () in
  let f =
    Mhir.Builder.func b "f"
      ~args:[ ("x", Mhir.Types.memref [ 3 ]) ]
      ~ret_tys:[]
      (fun b args ->
        let x = List.hd args in
        List.iteri
          (fun i c ->
            let v = Mhir.Builder.constant_f b c in
            Mhir.Builder.store b v x [ Mhir.Builder.constant_i b i ])
          non_finite;
        Mhir.Builder.ret b [])
  in
  let text = Mhir.Printer.module_to_string ~generic:true { Mhir.Ir.funcs = [ f ] } in
  Alcotest.(check string) "print . parse . print" text
    (Mhir.Printer.module_to_string ~generic:true (Mhir.Parser.parse_module text))

(* The printer writes [min_int] as a minus and a magnitude past
   [max_int]; the parser reads the two together, and the module
   compiles *)
let test_mhir_int_extremes_round_trip () =
  let attrs =
    Printf.sprintf "{hls.extra = %s, hls.other = %s, "
      (Mhir.Attr.to_string (Mhir.Attr.Int min_int))
      (Mhir.Attr.to_string (Mhir.Attr.Int max_int))
  in
  let src = replace_after (fir_mlir ()) "\"affine.for\"" "{" attrs in
  let m = Mhir.Parser.parse_module src in
  let text = Mhir.Printer.module_to_string ~generic:true m in
  List.iter
    (fun (what, i) ->
      Alcotest.(check bool) (what ^ " printed") true
        (Str_find.contains text (Mhir.Attr.to_string (Mhir.Attr.Int i))))
    [ ("min_int", min_int); ("max_int", max_int) ];
  Alcotest.(check string) "print . parse . print" text
    (Mhir.Printer.module_to_string ~generic:true (Mhir.Parser.parse_module text));
  match synth_mlir src with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "synth-mlir rejected the module"

(* A constant of [min_int] reaches the C++ text, which has no literal
   for it: both flows compile the module *)
let test_min_int_constant_both_flows () =
  let src =
    replace_first (fir_mlir ()) "^bb(%5: index, %6: f32):\n"
      ("^bb(%5: index, %6: f32):\n"
     ^ "%20 = \"arith.constant\"() {value = -4611686018427387904} : () -> (index)\n"
     ^ "%21 = \"arith.addi\"(%5, %20) : (index, index) -> (index)\n"
     ^ "%22 = \"arith.subi\"(%21, %20) : (index, index) -> (index)\n")
  in
  let src =
    replace_first src "\"affine.load\"(%1, %5) {map = affine_map<(d0) -> (d0)>}"
      "\"memref.load\"(%1, %22)"
  in
  List.iter
    (fun flow ->
      match synth_mlir ~flow src with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "synth-mlir --flow %s rejected the module" flow)
    [ "direct"; "cpp" ]

(* In an affine map a minus that touches its digits is still a binary
   minus: each map reads as its spaced form, and the first as
   d0 - (3 floordiv 2), not d0 + (-3 floordiv 2) *)
let test_affine_minus_before_digits () =
  let fir = fir_mlir () in
  let with_map map e =
    Mhir.Printer.module_to_string ~generic:true
      (Mhir.Parser.parse_module
         (replace_first fir
            (Printf.sprintf "affine_map<%s -> (%s)>" map
               (if map = "(d0)" then "d0" else "(d0 + d1)"))
            (Printf.sprintf "affine_map<%s -> (%s)>" map e)))
  in
  List.iter
    (fun (map, tight, spaced) ->
      Alcotest.(check string) tight (with_map map spaced) (with_map map tight))
    [
      ("(d0)", "d0 -3 floordiv 2", "d0 - 3 floordiv 2");
      ("(d0)", "d0 -5 mod 3", "d0 - 5 mod 3");
      ("(d0)", "d0 -7 ceildiv 2", "d0 - 7 ceildiv 2");
      ("(d0)", "d0 -0", "d0 - 0");
      ("(d0)", "d0 -1", "d0 - 1");
      ("(d0)", "(d0) -1", "(d0) - 1");
      ("(d0)", "-3 floordiv 2 + d0", "- 3 floordiv 2 + d0");
      ("(d0, d1)", "d0 -2 * d1 floordiv 3", "d0 - 2 * d1 floordiv 3");
    ];
  Alcotest.(check bool) "d0 - (3 floordiv 2)" true
    (Str_find.contains
       (with_map "(d0)" "d0 -3 floordiv 2")
       "affine_map<(d0) -> ((d0 + -1))>")

let suite =
  [
    Alcotest.test_case "integer past max_int is HLS000" `Quick
      test_int_past_max_int;
    Alcotest.test_case "unknown predicate is HLS000" `Quick
      test_unknown_predicate;
    Alcotest.test_case "missing or mistyped attribute is HLS000" `Quick
      test_missing_attribute;
    Alcotest.test_case "C++ flow on an infinite constant is HLS000" `Quick
      test_cpp_flow_infinite_constant;
    Alcotest.test_case "LLVM IR non-finite floats round-trip" `Quick
      test_llvm_non_finite_round_trip;
    Alcotest.test_case "mhir non-finite floats round-trip" `Quick
      test_mhir_non_finite_round_trip;
    Alcotest.test_case "mhir min_int and max_int round-trip" `Quick
      test_mhir_int_extremes_round_trip;
    Alcotest.test_case "min_int constant on both flows" `Quick
      test_min_int_constant_both_flows;
    Alcotest.test_case "affine minus before digits" `Quick
      test_affine_minus_before_digits;
    Alcotest.test_case "aggregate index is HLS000" `Quick test_aggregate_index;
    Alcotest.test_case "aggregate path past an array is HLS000" `Quick
      test_aggregate_array_range;
    Alcotest.test_case "mistyped literal is HLS000" `Quick test_mistyped_literal;
    Alcotest.test_case "C++ flow on a name like 5e is HLS000" `Quick
      test_cpp_flow_exponent_name;
    Alcotest.test_case "literals through three tokenizers" `Quick
      test_literal_table;
    Alcotest.test_case "mutants: front-ends" `Quick test_mutants_front_ends;
    Alcotest.test_case "mutants: mhir end to end" `Quick
      test_mutants_end_to_end;
  ]
