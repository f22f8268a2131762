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
  ]
