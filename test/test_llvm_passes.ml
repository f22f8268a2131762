(** Tests for the LLVM optimization passes, both unit-level (expected
    structural effect) and differential (semantics preserved on every
    kernel through the interpreter). *)

open Llvmir

let parse text =
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  m

let count_opcode pred (m : Lmodule.t) =
  List.fold_left
    (fun acc f -> Lmodule.fold_insts (fun n i -> if pred i then n + 1 else n) acc f)
    0 m.Lmodule.funcs

let is_alloca (i : Linstr.t) = match i.Linstr.op with Linstr.Alloca _ -> true | _ -> false
let is_load (i : Linstr.t) = match i.Linstr.op with Linstr.Load _ -> true | _ -> false
let is_phi (i : Linstr.t) = match i.Linstr.op with Linstr.Phi _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* mem2reg                                                            *)
(* ------------------------------------------------------------------ *)

let mem2reg_input =
  {|define i64 @f(i1 %c) {
entry:
  %x = alloca i64
  store i64 1, i64* %x
  br i1 %c, label %a, label %b
a:
  store i64 10, i64* %x
  br label %join
b:
  store i64 20, i64* %x
  br label %join
join:
  %v = load i64, i64* %x
  ret i64 %v
}|}

let test_mem2reg_promotes () =
  let m = parse mem2reg_input in
  let m', _ = Pass.run_pipeline [ Pass.mem2reg ] m in
  Lverifier.verify_module m';
  Alcotest.(check int) "allocas gone" 0 (count_opcode is_alloca m');
  Alcotest.(check int) "loads gone" 0 (count_opcode is_load m');
  Alcotest.(check int) "a phi was placed" 1 (count_opcode is_phi m')

let test_mem2reg_semantics () =
  let m = parse mem2reg_input in
  let m', _ = Pass.run_pipeline [ Pass.mem2reg ] m in
  List.iter
    (fun c ->
      let run mm =
        let st = Linterp.create mm in
        match Linterp.run st "f" [ Linterp.RInt c ] with
        | Some (Linterp.RInt v) -> v
        | _ -> -1
      in
      Alcotest.(check int) (Printf.sprintf "same result for c=%d" c) (run m) (run m'))
    [ 0; 1 ]

let test_mem2reg_loop_carried () =
  (* a counter in memory promoted across a back edge *)
  let m =
    parse
      {|define i64 @f() {
entry:
  %x = alloca i64
  store i64 0, i64* %x
  br label %header
header:
  %v = load i64, i64* %x
  %c = icmp slt i64 %v, 5
  br i1 %c, label %body, label %exit
body:
  %v2 = load i64, i64* %x
  %v3 = add i64 %v2, 1
  store i64 %v3, i64* %x
  br label %header
exit:
  %r = load i64, i64* %x
  ret i64 %r
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.mem2reg ] m in
  Lverifier.verify_module m';
  Alcotest.(check int) "allocas gone" 0 (count_opcode is_alloca m');
  let st = Linterp.create m' in
  (match Linterp.run st "f" [] with
  | Some (Linterp.RInt 5) -> ()
  | Some (Linterp.RInt v) -> Alcotest.failf "expected 5, got %d" v
  | _ -> Alcotest.fail "bad result")

let test_mem2reg_skips_escaping () =
  (* an alloca whose address is stored escapes and must survive *)
  let m =
    parse
      {|define void @f(i64** %out) {
entry:
  %x = alloca i64
  store i64* %x, i64** %out
  ret void
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.mem2reg ] m in
  Alcotest.(check int) "escaping alloca preserved" 1 (count_opcode is_alloca m')

(* Rename every [%name] to [%vN], N in order of first appearance, so
   two functions that differ only in register and label names print
   identically. *)
let alpha_normalize (text : string) : string =
  let b = Buffer.create (String.length text) in
  let names = Hashtbl.create 16 in
  let is_name_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true
    | _ -> false
  in
  let n = String.length text in
  let rec go i =
    if i < n then
      if text.[i] <> '%' then begin
        Buffer.add_char b text.[i];
        go (i + 1)
      end
      else begin
        let j = ref (i + 1) in
        while !j < n && is_name_char text.[!j] do incr j done;
        let name = String.sub text (i + 1) (!j - i - 1) in
        let id =
          match Hashtbl.find_opt names name with
          | Some id -> id
          | None ->
              let id = Hashtbl.length names in
              Hashtbl.replace names name id;
              id
        in
        Buffer.add_string b (Printf.sprintf "%%v%d" id);
        go !j
      end
  in
  go 0;
  Buffer.contents b

(* Three allocas that all get a phi in the join block.  The phi order
   and the [.phiN] names must follow the function's own layout, not the
   ids the interner handed out for the alloca names: each interning
   order of otherwise alpha-equivalent functions must promote to the
   same code up to renaming. *)
let test_mem2reg_interning_order () =
  let promote order =
    let names =
      Array.init 3 (fun i ->
          Printf.sprintf "m2r_%s_%d"
            (String.concat "" (List.map string_of_int order))
            i)
    in
    List.iter (fun i -> ignore (Support.Interner.intern names.(i))) order;
    let text =
      Printf.sprintf
        {|define i64 @f(i1 %%c) {
entry:
  %%%s = alloca i64
  %%%s = alloca i64
  %%%s = alloca i64
  br i1 %%c, label %%a, label %%b
a:
  store i64 1, i64* %%%s
  store i64 3, i64* %%%s
  store i64 5, i64* %%%s
  br label %%join
b:
  store i64 2, i64* %%%s
  store i64 4, i64* %%%s
  store i64 6, i64* %%%s
  br label %%join
join:
  %%l0 = load i64, i64* %%%s
  %%l1 = load i64, i64* %%%s
  %%l2 = load i64, i64* %%%s
  %%s0 = sub i64 %%l0, %%l1
  %%s1 = mul i64 %%s0, %%l2
  ret i64 %%s1
}|}
        names.(0) names.(1) names.(2) names.(0) names.(1) names.(2) names.(0)
        names.(1) names.(2) names.(0) names.(1) names.(2)
    in
    let m', _ = Pass.run_pipeline [ Pass.mem2reg ] (parse text) in
    Lverifier.verify_module m';
    Alcotest.(check int) "three phis" 3 (count_opcode is_phi m');
    alpha_normalize (Lprinter.module_to_string m')
  in
  let want = promote [ 0; 1; 2 ] in
  List.iter
    (fun order ->
      Alcotest.(check string)
        (Printf.sprintf "interned in order %s"
           (String.concat "," (List.map string_of_int order)))
        want (promote order))
    [ [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ]; [ 2; 1; 0 ] ]

(* A slot stored on both arms and never loaded after the join is not
   live-in there, so the join gets no phi (pruned SSA) *)
let test_mem2reg_no_phi_where_dead () =
  let m =
    parse
      {|define void @f(i1 %c, i64* %out) {
entry:
  %x = alloca i64
  br i1 %c, label %a, label %b
a:
  store i64 1, i64* %x
  %v = load i64, i64* %x
  store i64 %v, i64* %out
  br label %join
b:
  store i64 2, i64* %x
  br label %join
join:
  ret void
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.mem2reg ] m in
  Alcotest.(check int) "alloca gone" 0 (count_opcode is_alloca m');
  Alcotest.(check int) "load gone" 0 (count_opcode is_load m');
  Alcotest.(check int) "no phi at the join" 0 (count_opcode is_phi m')

(* A load at another type than the slot's (opaque pointers allow it)
   reads the stored bits, not the stored value: the slot must stay in
   memory, as LLVM's isAllocaPromotable keeps it *)
let test_mem2reg_keeps_type_punned_slot () =
  let m =
    parse
      {|define i32 @f(i64 %a) {
entry:
  %x = alloca i64
  store i64 %a, ptr %x
  %v = load i32, ptr %x
  ret i32 %v
}|}
  in
  let m', _ = Pass.run_pipeline Pass.default_pipeline m in
  Alcotest.(check int) "alloca kept" 1 (count_opcode is_alloca m');
  Alcotest.(check int) "load kept" 1 (count_opcode is_load m')

(* ------------------------------------------------------------------ *)
(* constfold / dce / cse / simplifycfg / licm                         *)
(* ------------------------------------------------------------------ *)

let test_constfold () =
  let m =
    parse
      {|define i64 @f() {
entry:
  %a = mul i64 6, 7
  %b = add i64 %a, 0
  %c = select i1 true, i64 %b, i64 99
  ret i64 %c
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.constfold ] m in
  Lverifier.verify_module m';
  Alcotest.(check int) "folded to a bare ret" 1
    (Lmodule.inst_count (List.hd m'.Lmodule.funcs));
  let st = Linterp.create m' in
  (match Linterp.run st "f" [] with
  | Some (Linterp.RInt 42) -> ()
  | _ -> Alcotest.fail "folded value wrong")

let test_dce () =
  let m =
    parse
      {|define i64 @f(i64 %x) {
entry:
  %dead1 = mul i64 %x, %x
  %dead2 = add i64 %dead1, 1
  ret i64 %x
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.dce ] m in
  Alcotest.(check int) "dead chain removed" 1
    (Lmodule.inst_count (List.hd m'.Lmodule.funcs))

(* Two phis that read only each other: each has a use, but nothing
   live needs either *)
let test_dce_dead_phi_cycle () =
  let m =
    parse
      {|define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %a = phi i64 [ 0, %entry ], [ %b, %loop ]
  %b = phi i64 [ 1, %entry ], [ %a, %loop ]
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i64 %i1
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.dce ] m in
  Alcotest.(check int) "only the counter phi is left" 1 (count_opcode is_phi m');
  Alcotest.(check int) "nothing live removed" 6
    (Lmodule.inst_count (List.hd m'.Lmodule.funcs));
  let m'', _ = Pass.run_pipeline [ Pass.dce ] m' in
  Alcotest.(check bool) "nothing dead: the function comes back physically" true
    (List.hd m''.Lmodule.funcs == List.hd m'.Lmodule.funcs)

let test_dce_keeps_side_effects () =
  let m =
    parse
      {|define void @f(i64* %p) {
entry:
  store i64 1, i64* %p
  ret void
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.dce ] m in
  Alcotest.(check int) "store survives" 2
    (Lmodule.inst_count (List.hd m'.Lmodule.funcs))

let test_cse () =
  let m =
    parse
      {|define i64 @f(i64 %x) {
entry:
  %a = mul i64 %x, %x
  %b = mul i64 %x, %x
  %c = add i64 %a, %b
  ret i64 %c
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.cse ] m in
  Lverifier.verify_module m';
  let muls =
    count_opcode
      (fun i -> match i.Linstr.op with Linstr.IBin (Linstr.Mul, _, _) -> true | _ -> false)
      m'
  in
  Alcotest.(check int) "duplicate mul unified" 1 muls;
  let st = Linterp.create m' in
  (match Linterp.run st "f" [ Linterp.RInt 5 ] with
  | Some (Linterp.RInt 50) -> ()
  | _ -> Alcotest.fail "cse changed semantics")

let test_cse_respects_dominance () =
  (* identical instructions in sibling branches must NOT unify *)
  let m =
    parse
      {|define i64 @f(i1 %c, i64 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %m1 = mul i64 %x, %x
  br label %join
b:
  %m2 = mul i64 %x, %x
  br label %join
join:
  %r = phi i64 [ %m1, %a ], [ %m2, %b ]
  ret i64 %r
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.cse ] m in
  Lverifier.verify_module m';
  let muls =
    count_opcode
      (fun i -> match i.Linstr.op with Linstr.IBin (Linstr.Mul, _, _) -> true | _ -> false)
      m'
  in
  Alcotest.(check int) "sibling expressions kept" 2 muls

(* [-0.0 + 0.0] is [+0.0], so every identity constfold applies must give
   the same bits as the unfolded function at [x = -0.0]; the select and
   the phi run at [c = false], where they pick [-0.0] *)
let test_constfold_signed_zero () =
  let at_neg_zero m =
    match
      Linterp.run (Linterp.create m) "f" [ Linterp.RFloat (-0.0); Linterp.RInt 0 ]
    with
    | Some (Linterp.RFloat v) -> Int64.bits_of_float v
    | _ -> Alcotest.fail "expected a float result"
  in
  List.iter
    (fun (name, body) ->
      let m =
        parse ("define double @f(double %x, i1 %c) {\nentry:\n" ^ body ^ "\n}")
      in
      let m', _ = Pass.run_pipeline [ Pass.constfold ] m in
      Alcotest.(check int64) name (at_neg_zero m) (at_neg_zero m'))
    [
      ("fadd x, 0.0", "  %a = fadd double %x, 0.0\n  ret double %a");
      ("fadd 0.0, x", "  %a = fadd double 0.0, %x\n  ret double %a");
      ("fsub x, -0.0", "  %a = fsub double %x, -0.0\n  ret double %a");
      ( "select c, 0.0, -0.0",
        "  %s = select i1 %c, double 0.0, double -0.0\n  ret double %s" );
      ( "phi of 0.0 and -0.0",
        String.concat "\n"
          [
            "  br i1 %c, label %a, label %b";
            "a:";
            "  br label %j";
            "b:";
            "  br label %j";
            "j:";
            "  %p = phi double [ 0.0, %a ], [ -0.0, %b ]";
            "  ret double %p";
          ] );
    ]

(* CSE keys float constants by bit pattern: [x * 0.0] and [x * -0.0]
   differ at [x = -1.0], while two products with the same NaN are one
   expression *)
let test_cse_float_constants () =
  let m =
    parse
      {|define float @f(float %x) {
entry:
  %a = fmul float %x, 0.0
  %b = fmul float %x, -0.0
  %c = fmul float %x, nan
  %d = fmul float %x, nan
  %s1 = fadd float %a, %b
  %s2 = fadd float %c, %d
  %s = fadd float %s1, %s2
  ret float %s
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.cse ] m in
  let factors =
    List.filter_map
      (fun (i : Linstr.t) ->
        match i.op with
        | Linstr.FBin (Linstr.FMul, _, Lvalue.Const (Lvalue.CFloat (v, _))) ->
            Some (Int64.bits_of_float v)
        | _ -> None)
      (Lmodule.fold_insts (fun acc i -> i :: acc) [] (List.hd m'.Lmodule.funcs))
  in
  Alcotest.(check (list int64)) "0.0, -0.0 kept apart; the NaNs merged"
    (List.sort compare (List.map Int64.bits_of_float [ 0.0; -0.0; Float.nan ]))
    (List.sort compare factors)

let test_simplifycfg_folds_constant_branch () =
  let m =
    parse
      {|define i64 @f() {
entry:
  br i1 true, label %a, label %b
a:
  ret i64 1
b:
  ret i64 2
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.simplifycfg ] m in
  Lverifier.verify_module m';
  let f = List.hd m'.Lmodule.funcs in
  Alcotest.(check int) "dead branch removed" 1 (List.length f.Lmodule.blocks);
  let st = Linterp.create m' in
  (match Linterp.run st "f" [] with
  | Some (Linterp.RInt 1) -> ()
  | _ -> Alcotest.fail "wrong branch survived")

let test_simplifycfg_merges_chains () =
  let m =
    parse
      {|define i64 @f() {
entry:
  br label %a
a:
  %x = add i64 1, 2
  br label %b
b:
  ret i64 %x
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.simplifycfg ] m in
  Lverifier.verify_module m';
  Alcotest.(check int) "straight-line chain merged" 1
    (List.length (List.hd m'.Lmodule.funcs).Lmodule.blocks)

let test_licm_hoists () =
  let m =
    parse
      {|define i64 @f(i64 %a, i64 %b) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %body ]
  %c = icmp slt i64 %i, 10
  br i1 %c, label %body, label %exit
body:
  %inv = mul i64 %a, %b
  %s.next = add i64 %s, %inv
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %s
}|}
  in
  let m', _ = Pass.run_pipeline [ Pass.licm ] m in
  Lverifier.verify_module m';
  let f = Lmodule.find_func_exn m' "f" in
  let entry = Lmodule.entry f in
  let hoisted =
    List.exists
      (fun (i : Linstr.t) ->
        match i.Linstr.op with Linstr.IBin (Linstr.Mul, _, _) -> true | _ -> false)
      entry.Lmodule.insts
  in
  Alcotest.(check bool) "invariant mul hoisted to preheader" true hoisted;
  let run mm =
    let st = Linterp.create mm in
    match Linterp.run st "f" [ Linterp.RInt 3; Linterp.RInt 4 ] with
    | Some (Linterp.RInt v) -> v
    | _ -> -1
  in
  Alcotest.(check int) "licm preserves semantics" (run m) (run m')

(* f(a, b, n): a loop of n iterations whose body divides a by [divisor]. *)
let div_loop divisor =
  String.concat divisor
    [
      {|define i64 @f(i64 %a, i64 %b, i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %q = sdiv i64 %a, |};
      {|
  %s.next = add i64 %s, %q
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %s
}|};
    ]

(* The same loop, with the division behind a b != 0 guard. *)
let guarded_div =
  {|define i64 @f(i64 %a, i64 %b, i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %nz = icmp ne i64 %b, 0
  br i1 %nz, label %div, label %latch
div:
  %q = sdiv i64 %a, %b
  br label %latch
latch:
  %v = phi i64 [ %q, %div ], [ 0, %body ]
  %s.next = add i64 %s, %v
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %s
}|}

let test_licm_keeps_trapping_division () =
  let run name m args =
    let st = Linterp.create m in
    match Linterp.run st "f" (List.map (fun v -> Linterp.RInt v) args) with
    | Some (Linterp.RInt v) -> v
    | _ -> Alcotest.failf "%s: no integer result" name
    | exception Support.Err.Compile_error e ->
        Alcotest.failf "%s: %s" name (Support.Err.to_string e)
  in
  List.iter
    (fun (name, text, n) ->
      let m = parse text in
      let args = [ 7; 0; n ] in
      Alcotest.(check int) (name ^ ": input") 0 (run name m args);
      Alcotest.(check int) (name ^ ": after licm") 0
        (run (name ^ " after licm")
           (fst (Pass.run_pipeline [ Pass.licm ] m))
           args);
      Alcotest.(check int) (name ^ ": after the default pipeline") 0
        (run (name ^ " after the default pipeline")
           (fst (Pass.run_pipeline Pass.default_pipeline m))
           args))
    [ ("zero-trip loop", div_loop "%b", 0); ("guarded", guarded_div, 3) ];
  (* a constant divisor other than 0 and -1 cannot trap: still hoisted *)
  let m = parse (div_loop "4") in
  let m', _ = Pass.run_pipeline [ Pass.licm ] m in
  let entry = Lmodule.entry (Lmodule.find_func_exn m' "f") in
  Alcotest.(check bool) "division by 4 hoisted" true
    (List.exists
       (fun (i : Linstr.t) ->
         match i.Linstr.op with Linstr.IBin (Linstr.SDiv, _, _) -> true | _ -> false)
       entry.Lmodule.insts)

(* ------------------------------------------------------------------ *)
(* Differential: full pipeline on all kernels                         *)
(* ------------------------------------------------------------------ *)

let test_pipeline_differential () =
  List.iter
    (fun k ->
      let m = k.Workloads.Kernels.build Workloads.Kernels.no_directives in
      let lm = Lowering.Lower.lower_module m in
      let lm', _ = Pass.run_pipeline Pass.default_pipeline lm in
      let out1 = Flow.run_llvm k lm in
      let out2 = Flow.run_llvm k lm' in
      List.iteri
        (fun i (a, b) ->
          Array.iteri
            (fun j av ->
              if Float.abs (av -. b.(j)) > 1e-9 then
                Alcotest.failf "%s: optimized IR diverges at arg %d[%d]"
                  k.Workloads.Kernels.kname i j)
            a)
        (List.combine out1 out2))
    (Workloads.Kernels.all ())

let test_pipeline_shrinks_ir () =
  (* the cleanup pipeline should never grow the instruction count on
     single-function kernels (inlining legitimately duplicates code in
     multi-function ones) *)
  List.iter
    (fun k ->
      let m = k.Workloads.Kernels.build Workloads.Kernels.no_directives in
      if List.length m.Mhir.Ir.funcs = 1 then begin
        let lm = Lowering.Lower.lower_module m in
        let lm', _ = Pass.run_pipeline Pass.default_pipeline lm in
        let count mm =
          List.fold_left
            (fun acc f -> acc + Lmodule.inst_count f)
            0 mm.Lmodule.funcs
        in
        Alcotest.(check bool)
          (k.Workloads.Kernels.kname ^ " does not grow")
          true
          (count lm' <= count lm)
      end)
    (Workloads.Kernels.all ())

let test_inline_pass () =
  let m =
    parse
      {|define i64 @helper(i64 %x) {
entry:
  %c = icmp sgt i64 %x, 10
  br i1 %c, label %big, label %small
big:
  ret i64 100
small:
  %d = mul i64 %x, 2
  ret i64 %d
}
define i64 @top(i64 %a) {
entry:
  %r1 = call i64 @helper(i64 %a)
  %r2 = call i64 @helper(i64 20)
  %s = add i64 %r1, %r2
  ret i64 %s
}|}
  in
  let m' = Opt_inline.run m in
  Lverifier.verify_module m';
  let top = Lmodule.find_func_exn m' "top" in
  let calls =
    Lmodule.fold_insts
      (fun n (i : Linstr.t) ->
        match i.Linstr.op with Linstr.Call _ -> n + 1 | _ -> n)
      0 top
  in
  Alcotest.(check int) "no calls remain in @top" 0 calls;
  let run mm a =
    let st = Linterp.create mm in
    match Linterp.run st "top" [ Linterp.RInt a ] with
    | Some (Linterp.RInt v) -> v
    | _ -> -1
  in
  (* helper(3)=6, helper(20)=100 -> 106; helper(50)=100 -> 200 *)
  Alcotest.(check int) "inlined semantics (small)" 106 (run m' 3);
  Alcotest.(check int) "inlined semantics (big)" 200 (run m' 50);
  Alcotest.(check int) "matches original" (run m 3) (run m' 3)

let test_inline_multi_function_kernel () =
  let k = Workloads.Kernels.mmcall () in
  let m = k.Workloads.Kernels.build Workloads.Kernels.pipelined in
  let lm = Lowering.Lower.lower_module m in
  let lm', _ = Pass.run_pipeline Pass.default_pipeline lm in
  let top = Lmodule.find_func_exn lm' "mmcall" in
  let calls_to_helper =
    Lmodule.fold_insts
      (fun n (i : Linstr.t) ->
        match i.Linstr.op with
        | Linstr.Call { callee = "mm_row"; _ } -> n + 1
        | _ -> n)
      0 top
  in
  Alcotest.(check int) "helper fully inlined" 0 calls_to_helper;
  (* semantics preserved vs the reference *)
  let reference = Flow.run_reference k in
  let got = Flow.run_llvm k lm' in
  let err, issues = Flow.compare_outputs k ~what:"inlined" reference got in
  if issues <> [] then Alcotest.fail (List.hd issues);
  Alcotest.(check bool) "error small" true (err < 1e-5)

let suite =
  [
    Alcotest.test_case "mem2reg promotes" `Quick test_mem2reg_promotes;
    Alcotest.test_case "mem2reg semantics" `Quick test_mem2reg_semantics;
    Alcotest.test_case "mem2reg loop-carried" `Quick test_mem2reg_loop_carried;
    Alcotest.test_case "mem2reg skips escaping" `Quick test_mem2reg_skips_escaping;
    Alcotest.test_case "mem2reg independent of interning order" `Quick
      test_mem2reg_interning_order;
    Alcotest.test_case "mem2reg places no phi where the slot is dead" `Quick
      test_mem2reg_no_phi_where_dead;
    Alcotest.test_case "mem2reg keeps a type-punned slot" `Quick
      test_mem2reg_keeps_type_punned_slot;
    Alcotest.test_case "constfold" `Quick test_constfold;
    Alcotest.test_case "dce" `Quick test_dce;
    Alcotest.test_case "dce keeps side effects" `Quick test_dce_keeps_side_effects;
    Alcotest.test_case "dce deletes a dead phi cycle" `Quick test_dce_dead_phi_cycle;
    Alcotest.test_case "cse" `Quick test_cse;
    Alcotest.test_case "cse respects dominance" `Quick test_cse_respects_dominance;
    Alcotest.test_case "constfold keeps the sign of zero" `Quick
      test_constfold_signed_zero;
    Alcotest.test_case "cse keeps float constants apart by bits" `Quick
      test_cse_float_constants;
    Alcotest.test_case "simplifycfg constant branch" `Quick test_simplifycfg_folds_constant_branch;
    Alcotest.test_case "simplifycfg merges chains" `Quick test_simplifycfg_merges_chains;
    Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
    Alcotest.test_case "licm keeps trapping division" `Quick
      test_licm_keeps_trapping_division;
    Alcotest.test_case "pipeline differential (all kernels)" `Quick test_pipeline_differential;
    Alcotest.test_case "pipeline shrinks IR" `Quick test_pipeline_shrinks_ir;
    Alcotest.test_case "inline pass" `Quick test_inline_pass;
    Alcotest.test_case "inline multi-function kernel" `Quick
      test_inline_multi_function_kernel;
  ]
