(** Tests for dead-store detection. *)

open Llvmir

let parse_fn text =
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  List.hd m.Lmodule.funcs

let dead_store_fn =
  {|define void @f([16 x float]* %out) {
entry:
  %tmp = alloca [16 x float]
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %tmp, i64 0, i64 0
  store float 1.0, float* %p0
  %q = getelementptr inbounds [16 x float], [16 x float]* %out, i64 0, i64 0
  store float 2.0, float* %q
  ret void
}|}

let test_dead_store_found () =
  let cfg = Cfg.build (parse_fn dead_store_fn) in
  let ds = Dataflow.dead_stores ~am:(Analysis.create ()) cfg in
  Alcotest.(check int) "one dead store" 1 (List.length ds);
  Alcotest.(check string) "to the local alloca" "tmp"
    (List.hd ds).Dataflow.ds_array

let live_store_fn =
  {|define void @f([16 x float]* %out) {
entry:
  %tmp = alloca [16 x float]
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %tmp, i64 0, i64 0
  store float 1.0, float* %p0
  %v = load float, float* %p0
  %q = getelementptr inbounds [16 x float], [16 x float]* %out, i64 0, i64 0
  store float %v, float* %q
  ret void
}|}

let test_read_store_not_flagged () =
  let cfg = Cfg.build (parse_fn live_store_fn) in
  Alcotest.(check int) "no dead stores" 0
    (List.length (Dataflow.dead_stores ~am:(Analysis.create ()) cfg))

let escaping_fn =
  {|declare void @use(float*)
define void @f() {
entry:
  %tmp = alloca [16 x float]
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %tmp, i64 0, i64 0
  store float 1.0, float* %p0
  call void @use(float* %p0)
  ret void
}|}

let test_escaping_store_not_flagged () =
  let cfg = Cfg.build (parse_fn escaping_fn) in
  Alcotest.(check int) "escaping alloca not flagged" 0
    (List.length (Dataflow.dead_stores ~am:(Analysis.create ()) cfg))

(* a store that a branch may kill is still live on the other path *)
let branchy_fn =
  {|define float @f(i1 %c) {
entry:
  %tmp = alloca [16 x float]
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %tmp, i64 0, i64 0
  store float 1.0, float* %p0
  br i1 %c, label %yes, label %no
yes:
  %v = load float, float* %p0
  br label %join
no:
  br label %join
join:
  %r = phi float [ %v, %yes ], [ 0.0, %no ]
  ret float %r
}|}

let test_may_read_keeps_store () =
  let cfg = Cfg.build (parse_fn branchy_fn) in
  Alcotest.(check int) "store read on one path is live" 0
    (List.length (Dataflow.dead_stores ~am:(Analysis.create ()) cfg))

(* the only read of the stored value is in the next iteration: the
   fixpoint must carry it around the back edge *)
let loop_carried_fn =
  {|define float @f(i64 %n) {
entry:
  %tmp = alloca [16 x float]
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %tmp, i64 0, i64 0
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %acc = phi float [ 0.0, %entry ], [ %acc.next, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %v = load float, float* %p0
  %acc.next = fadd float %acc, %v
  store float %acc.next, float* %p0
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret float %acc
}|}

let test_loop_carried_read_keeps_store () =
  let cfg = Cfg.build (parse_fn loop_carried_fn) in
  Alcotest.(check int) "store read in the next iteration is live" 0
    (List.length (Dataflow.dead_stores ~am:(Analysis.create ()) cfg))

let suite =
  [
    Alcotest.test_case "dead store found" `Quick test_dead_store_found;
    Alcotest.test_case "read store kept" `Quick test_read_store_not_flagged;
    Alcotest.test_case "escaping store kept" `Quick
      test_escaping_store_not_flagged;
    Alcotest.test_case "may-read keeps store" `Quick test_may_read_keeps_store;
    Alcotest.test_case "loop-carried read keeps store" `Quick
      test_loop_carried_read_keeps_store;
  ]
