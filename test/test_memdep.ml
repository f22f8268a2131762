(** Tests for the loop-carried memory-dependence analysis: known
    distances, unknown offsets, independence, and GEMM-style nests. *)

open Llvmir

let parse_fn text =
  let m = Lparser.parse_module text in
  Lverifier.verify_module m;
  List.hd m.Lmodule.funcs

let analyze text =
  let f = parse_fn text in
  (Findex.build f, Analysis.loop_info ~am:(Analysis.create ()) f)

(* store A[i], load A[i-1]: flow dependence carried at distance 1 *)
let shift_fn =
  {|define void @k([64 x float]* %A) {
entry:
  br label %h
h:
  %i = phi i64 [ 1, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, 64
  br i1 %c, label %b, label %x
b:
  %im1 = sub i64 %i, 1
  %pl = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %im1
  %v = load float, float* %pl
  %ps = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %i
  store float %v, float* %ps
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}|}

let verdicts text =
  let idx, li = analyze text in
  List.map
    (fun (d : Memdep.dep) -> d.Memdep.dep_verdict)
    (Memdep.analyze_loop idx li 0)

let test_known_distance () =
  let vs = verdicts shift_fn in
  Alcotest.(check bool) "store->load carried at distance 1" true
    (List.mem (Memdep.Carried 1) vs);
  (* the store paired with itself writes a fresh element each
     iteration: intra only *)
  Alcotest.(check bool) "store self-pair intra" true (List.mem Memdep.Intra vs);
  Alcotest.(check bool) "nothing unknown" false (List.mem Memdep.Unknown vs)

let test_iv_phi () =
  let idx, li = analyze shift_fn in
  Alcotest.(check (option string)) "induction variable" (Some "i")
    (Option.map Support.Interner.name (Memdep.iv_phi idx li 0))

(* store A[2i], load A[2i+1]: interleaved, never collide *)
let stride2_fn =
  {|define void @k([64 x float]* %A) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, 31
  br i1 %c, label %b, label %x
b:
  %e = mul i64 %i, 2
  %o = add i64 %e, 1
  %pl = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %o
  %v = load float, float* %pl
  %ps = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %e
  store float %v, float* %ps
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}|}

let test_independent_interleave () =
  let vs = verdicts stride2_fn in
  Alcotest.(check bool) "even/odd accesses independent" true
    (List.mem Memdep.Independent vs);
  Alcotest.(check bool) "no carried dep" false
    (List.exists (function Memdep.Carried _ -> true | _ -> false) vs)

(* store A[i], load B[i]: distinct arrays, no pair at all *)
let two_arrays_fn =
  {|define void @k([64 x float]* %A, [64 x float]* %B) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, 64
  br i1 %c, label %b, label %x
b:
  %pl = getelementptr inbounds [64 x float], [64 x float]* %B, i64 0, i64 %i
  %v = load float, float* %pl
  %ps = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %i
  store float %v, float* %ps
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}|}

let test_distinct_arrays () =
  let idx, li = analyze two_arrays_fn in
  let deps = Memdep.analyze_loop idx li 0 in
  (* only the store's self-pair on A remains, and it is intra *)
  Alcotest.(check bool) "no cross-array pairs" true
    (List.for_all (fun d -> d.Memdep.dep_array = "A") deps);
  Alcotest.(check (list bool)) "self-pair intra" [ true ]
    (List.map (fun d -> d.Memdep.dep_verdict = Memdep.Intra) deps)

(* store A[i+n] with symbolic n: fixed but unknown offset *)
let unknown_fn =
  {|define void @k([64 x float]* %A, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %b, label %x
b:
  %ipn = add i64 %i, %n
  %pl = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %i
  %v = load float, float* %pl
  %ps = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %ipn
  store float %v, float* %ps
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}|}

let test_unknown_offset () =
  let vs = verdicts unknown_fn in
  Alcotest.(check bool) "symbolic offset is unknown" true
    (List.mem Memdep.Unknown vs)

(* store through a phi-selected pointer (unknown base) next to a load
   from %A: symbol equality alone would silently treat them as
   independent; the alias oracle pairs them and reports Unknown *)
let phi_ptr_fn =
  {|define void @k([64 x float]* %A, [64 x float]* %B, i1 %c) {
entry:
  br i1 %c, label %l, label %r
l:
  br label %h0
r:
  br label %h0
h0:
  %ptr = phi [64 x float]* [ %A, %l ], [ %B, %r ]
  br label %h
h:
  %i = phi i64 [ 0, %h0 ], [ %i.next, %b ]
  %cc = icmp slt i64 %i, 64
  br i1 %cc, label %b, label %x
b:
  %pl = getelementptr inbounds [64 x float], [64 x float]* %A, i64 0, i64 %i
  %v = load float, float* %pl
  %ps = getelementptr inbounds [64 x float], [64 x float]* %ptr, i64 0, i64 %i
  store float %v, float* %ps
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}|}

let test_phi_pointer_pairs () =
  let idx, li = analyze phi_ptr_fn in
  (* the loop over %i is the innermost loop *)
  let j =
    Array.to_list li.Loop_info.loops
    |> List.mapi (fun j l -> (j, l.Loop_info.depth))
    |> List.fold_left
         (fun (bj, bd) (j, d) -> if d > bd then (j, d) else (bj, bd))
         (0, 0)
    |> fst
  in
  let deps = Memdep.analyze_loop idx li j in
  Alcotest.(check bool)
    "load %A paired with store through phi pointer, verdict unknown" true
    (List.exists
       (fun d ->
         d.Memdep.dep_verdict = Memdep.Unknown
         && d.Memdep.dep_src.Memdep.acc_array <> d.Memdep.dep_dst.Memdep.acc_array)
       deps)

(* GEMM-style inner loop: A and B are only loaded, the accumulation is
   in a register — no memory dependence at all w.r.t. the k-loop *)
let test_gemm_inner_loop () =
  let k = Option.get (Workloads.Kernels.by_name "gemm") in
  let d =
    {
      Workloads.Kernels.pipeline_ii = Some 1;
      unroll = None;
      strategy = Workloads.Kernels.Inner;
      partitions = [];
    }
  in
  let lm, _, _ =
    Flow_util.frontend_exn (k.Workloads.Kernels.build d)
  in
  let f = Llvmir.Lmodule.find_func_exn lm "gemm" in
  let idx = Findex.build f and li = Analysis.loop_info ~am:(Analysis.create ()) f in
  (* find the innermost loop (depth 3) *)
  let j =
    Option.get
      (Array.to_list li.Loop_info.loops
      |> List.mapi (fun j l -> (j, l))
      |> List.find_opt (fun (_, l) -> l.Loop_info.depth = 3)
      |> Option.map fst)
  in
  let carried = Memdep.carried (Memdep.analyze_loop idx li j) in
  Alcotest.(check int) "no carried memory deps in gemm inner loop" 0
    (List.length carried);
  (* but the outer accesses do exist *)
  Alcotest.(check bool) "accesses collected" true
    (List.length (Memdep.accesses_in idx li j) >= 2)

(* seidel-style in-place stencil: store A[i][j] vs load A[i][j+1]
   in the inner loop is carried at distance 1 *)
let test_seidel_carried () =
  let k = Option.get (Workloads.Kernels.by_name "seidel2d") in
  let d =
    {
      Workloads.Kernels.pipeline_ii = Some 1;
      unroll = None;
      strategy = Workloads.Kernels.Inner;
      partitions = [];
    }
  in
  let lm, _, _ =
    Flow_util.frontend_exn (k.Workloads.Kernels.build d)
  in
  let f = Llvmir.Lmodule.find_func_exn lm "seidel2d" in
  let idx = Findex.build f and li = Analysis.loop_info ~am:(Analysis.create ()) f in
  let deepest =
    Array.to_list li.Loop_info.loops
    |> List.mapi (fun j l -> (j, l.Loop_info.depth))
    |> List.fold_left (fun (bj, bd) (j, dep) ->
           if dep > bd then (j, dep) else (bj, bd))
         (0, 0)
    |> fst
  in
  let carried = Memdep.carried (Memdep.analyze_loop idx li deepest) in
  Alcotest.(check bool) "in-place stencil has carried deps" true
    (carried <> []);
  Alcotest.(check bool) "distance-1 dependence detected" true
    (List.exists
       (fun d -> d.Memdep.dep_verdict = Memdep.Carried 1)
       carried)

let suite =
  [
    Alcotest.test_case "known distance 1" `Quick test_known_distance;
    Alcotest.test_case "induction variable" `Quick test_iv_phi;
    Alcotest.test_case "even/odd independent" `Quick
      test_independent_interleave;
    Alcotest.test_case "distinct arrays" `Quick test_distinct_arrays;
    Alcotest.test_case "unknown symbolic offset" `Quick test_unknown_offset;
    Alcotest.test_case "phi pointer pairs across arrays" `Quick
      test_phi_pointer_pairs;
    Alcotest.test_case "gemm inner loop clean" `Quick test_gemm_inner_loop;
    Alcotest.test_case "seidel carried dep" `Quick test_seidel_carried;
  ]
