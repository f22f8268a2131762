(** Synthetic LLVM-module generators for benchmarks, CI smoke tests
    and the parallel-pipeline determinism checks.

    The modules are generated as textual IR and round-tripped through
    {!Llvmir.Lparser} so they exercise exactly the code path a real
    frontend input takes; every generated module verifies. *)

module L = Llvmir

(** One self-contained kernel function.  Each carries fodder for the
    whole scalar pipeline — an alloca cell (mem2reg), a constant
    expression (constfold), a duplicated subexpression (cse), a
    loop-invariant product (licm) and an unused chain (dce) — with
    constants varied by [i] so no two functions are identical. *)
let kernel_text (i : int) : string =
  let c = 3 + (i mod 7) in
  let bound = 32 + (8 * (i mod 5)) in
  Printf.sprintf
    {|define void @k%d([64 x float]* %%A, [64 x float]* %%B) {
entry:
  %%cell = alloca i64
  store i64 %d, i64* %%cell
  %%seed = load i64, i64* %%cell
  br label %%h
h:
  %%i = phi i64 [ 0, %%entry ], [ %%i.next, %%b ]
  %%cmp = icmp slt i64 %%i, %d
  br i1 %%cmp, label %%b, label %%x
b:
  %%inv = mul i64 %d, 3
  %%e1 = add i64 %%i, %%inv
  %%e2 = add i64 %%i, %%inv
  %%dead = mul i64 %%e2, %d
  %%keep = add i64 %%e1, %%seed
  %%pa = getelementptr inbounds [64 x float], [64 x float]* %%A, i64 0, i64 %%i
  %%v = load float, float* %%pa
  %%pb = getelementptr inbounds [64 x float], [64 x float]* %%B, i64 0, i64 %%i
  store float %%v, float* %%pb
  %%i.next = add i64 %%i, 1
  br label %%h
x:
  ret void
}|}
    i c bound c (5 + (i mod 3))

(** [many_kernels ~n] — a verified module of [n] independent kernel
    functions touching only their own pointer parameters.  {!Parsafe}
    proves it [Safe], so it is the workload for the parallel-pipeline
    byte-identity smoke test and the many-function compile bench. *)
let many_kernels ~(n : int) : L.Lmodule.t =
  let b = Buffer.create (n * 1024) in
  for i = 0 to n - 1 do
    Buffer.add_string b (kernel_text i);
    Buffer.add_char b '\n'
  done;
  let m = L.Lparser.parse_module (Buffer.contents b) in
  (* nothing reuses these analyses: a manager per function keeps one
     function's index, CFG and dominator tree alive at a time, where
     one manager for the module would hold all [n] of them *)
  List.iter
    (fun f -> L.Lverifier.verify_func ~am:(L.Analysis.create ()) m f)
    m.L.Lmodule.funcs;
  { m with L.Lmodule.mname = Printf.sprintf "synth%d" n }

(** A module in which two functions both read-modify-write the global
    [@acc]: the canonical {!Parsafe} negative — the checker must
    report a write-write conflict on [@acc] and the parallel pipeline
    must fall back. *)
let shared_global_writers () : L.Lmodule.t =
  let m =
    L.Lparser.parse_module
      {|@acc = global i64 0
define void @bump_a() {
entry:
  %v = load i64, i64* @acc
  %v2 = add i64 %v, 1
  store i64 %v2, i64* @acc
  ret void
}
define void @bump_b() {
entry:
  %v = load i64, i64* @acc
  %v2 = add i64 %v, 2
  store i64 %v2, i64* @acc
  ret void
}|}
  in
  L.Lverifier.verify_module m;
  { m with L.Lmodule.mname = "shared_global" }
