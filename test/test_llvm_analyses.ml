(** Tests for the LLVM-side analyses: CFG, dominance, loop detection
    and trip-count pattern matching. *)

open Llvmir

let parse_fn text =
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  List.hd m.Lmodule.funcs

let diamond =
  {|define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret i64 0
}|}

let loop_fn =
  {|define void @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %c = icmp slt i64 %i, 10
  br i1 %c, label %body, label %exit
body:
  br label %latch
latch:
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret void
}|}

let nested_loops =
  {|define void @f() {
entry:
  br label %h1
h1:
  %i = phi i64 [ 0, %entry ], [ %i.next, %l1 ]
  %c1 = icmp slt i64 %i, 4
  br i1 %c1, label %b1, label %x1
b1:
  br label %h2
h2:
  %j = phi i64 [ 0, %b1 ], [ %j.next, %l2 ]
  %c2 = icmp slt i64 %j, 8
  br i1 %c2, label %b2, label %x2
b2:
  br label %l2
l2:
  %j.next = add i64 %j, 1
  br label %h2
x2:
  br label %l1
l1:
  %i.next = add i64 %i, 2
  br label %h1
x1:
  ret void
}|}

let test_cfg_edges () =
  let f = parse_fn diamond in
  let cfg = Cfg.build f in
  let entry = Cfg.index_of_exn cfg "entry" in
  let join = Cfg.index_of_exn cfg "join" in
  Alcotest.(check int) "entry has two successors" 2
    (List.length cfg.Cfg.succs.(entry));
  Alcotest.(check int) "join has two predecessors" 2
    (List.length cfg.Cfg.preds.(join));
  Alcotest.(check int) "rpo covers all blocks" 4
    (List.length (Cfg.reverse_postorder cfg))

let test_dominance_diamond () =
  let f = parse_fn diamond in
  let cfg = Cfg.build f in
  let dom = Dominance.compute cfg in
  let i l = Cfg.index_of_exn cfg l in
  Alcotest.(check bool) "entry dominates join" true
    (Dominance.dominates dom (i "entry") (i "join"));
  Alcotest.(check bool) "a does not dominate join" false
    (Dominance.dominates dom (i "a") (i "join"));
  Alcotest.(check bool) "reflexive" true (Dominance.dominates dom (i "a") (i "a"));
  Alcotest.(check int) "idom(join) = entry" (i "entry") dom.Dominance.idom.(i "join")

let test_dominance_frontiers () =
  let f = parse_fn diamond in
  let cfg = Cfg.build f in
  let dom = Dominance.compute cfg in
  let df = Dominance.frontiers dom in
  let i l = Cfg.index_of_exn cfg l in
  Alcotest.(check (list int)) "DF(a) = {join}" [ i "join" ] df.(i "a");
  Alcotest.(check (list int)) "DF(b) = {join}" [ i "join" ] df.(i "b");
  Alcotest.(check (list int)) "DF(entry) = {}" [] df.(i "entry")

let test_loop_detection () =
  let f = parse_fn loop_fn in
  let cfg = Cfg.build f in
  let li = Loop_info.compute (Dominance.compute cfg) in
  Alcotest.(check int) "one loop" 1 (Array.length li.Loop_info.loops);
  let l = li.Loop_info.loops.(0) in
  Alcotest.(check string) "header label" "header"
    (Support.Interner.name (Cfg.label cfg l.Loop_info.header));
  Alcotest.(check int) "loop body size" 3 (List.length l.Loop_info.body);
  Alcotest.(check int) "depth 1" 1 l.Loop_info.depth

let test_nested_loop_structure () =
  let f = parse_fn nested_loops in
  let cfg = Cfg.build f in
  let li = Loop_info.compute (Dominance.compute cfg) in
  Alcotest.(check int) "two loops" 2 (Array.length li.Loop_info.loops);
  let depths =
    List.sort compare
      (Array.to_list (Array.map (fun l -> l.Loop_info.depth) li.Loop_info.loops))
  in
  Alcotest.(check (list int)) "depths 1 and 2" [ 1; 2 ] depths;
  (* parent/child agree *)
  Array.iteri
    (fun j l ->
      match l.Loop_info.parent with
      | Some p ->
          Alcotest.(check bool) "child registered in parent" true
            (List.mem j li.Loop_info.loops.(p).Loop_info.children)
      | None -> ())
    li.Loop_info.loops

let test_trip_counts () =
  let f = parse_fn loop_fn in
  let cfg = Cfg.build f in
  let li = Loop_info.compute (Dominance.compute cfg) in
  Alcotest.(check (option int)) "trip count 10" (Some 10) (Loop_info.trip_count li 0)

let test_trip_count_with_step () =
  let f = parse_fn nested_loops in
  let cfg = Cfg.build f in
  let li = Loop_info.compute (Dominance.compute cfg) in
  let counts =
    List.sort compare
      (List.filter_map
         (fun j -> Loop_info.trip_count li j)
         (List.init (Array.length li.Loop_info.loops) Fun.id))
  in
  (* outer: (4-0+1)/2 = 2, inner: 8 *)
  Alcotest.(check (list int)) "trip counts with step" [ 2; 8 ] counts

let test_unreachable_blocks () =
  let f =
    parse_fn
      {|define void @f() {
entry:
  ret void
island:
  br label %island
}|}
  in
  let cfg = Cfg.build f in
  Alcotest.(check int) "one unreachable block" 1
    (List.length (Cfg.unreachable_blocks cfg))

let test_lowered_gemm_loops () =
  (* end-to-end: lowering the gemm kernel yields a 3-deep loop nest *)
  let m =
    (Workloads.Kernels.gemm ()).Workloads.Kernels.build
      Workloads.Kernels.no_directives
  in
  let lm = Lowering.Lower.lower_module m in
  let f = Lmodule.find_func_exn lm "gemm" in
  let cfg = Cfg.build f in
  let li = Loop_info.compute (Dominance.compute cfg) in
  Alcotest.(check int) "three loops" 3 (Array.length li.Loop_info.loops);
  let max_depth =
    Array.fold_left (fun acc l -> max acc l.Loop_info.depth) 0 li.Loop_info.loops
  in
  Alcotest.(check int) "max depth 3" 3 max_depth

let suite =
  [
    Alcotest.test_case "cfg edges" `Quick test_cfg_edges;
    Alcotest.test_case "dominance diamond" `Quick test_dominance_diamond;
    Alcotest.test_case "dominance frontiers" `Quick test_dominance_frontiers;
    Alcotest.test_case "loop detection" `Quick test_loop_detection;
    Alcotest.test_case "nested loops" `Quick test_nested_loop_structure;
    Alcotest.test_case "trip counts" `Quick test_trip_counts;
    Alcotest.test_case "trip count with step" `Quick test_trip_count_with_step;
    Alcotest.test_case "unreachable blocks" `Quick test_unreachable_blocks;
    Alcotest.test_case "lowered gemm loop nest" `Quick test_lowered_gemm_loops;
  ]
