(** Unit tests for the support library. *)

let test_namegen_basic () =
  let g = Support.Namegen.create () in
  Alcotest.(check string) "first use of a base keeps it" "x" (Support.Namegen.fresh g "x");
  let second = Support.Namegen.fresh g "x" in
  Alcotest.(check bool) "second use is distinct" true (second <> "x");
  Alcotest.(check bool) "second is registered" true (Support.Namegen.is_used g second)

let test_namegen_reserve () =
  let g = Support.Namegen.create () in
  Support.Namegen.reserve g "t0";
  let n = Support.Namegen.fresh g "t0" in
  Alcotest.(check bool) "reserved name is avoided" true (n <> "t0")

let test_namegen_no_collisions () =
  let g = Support.Namegen.create () in
  let names = List.init 100 (fun _ -> Support.Namegen.fresh g "v") in
  let uniq = List.sort_uniq compare names in
  Alcotest.(check int) "100 fresh names are distinct" 100 (List.length uniq)

let test_table_render () =
  let t = Support.Table.create ~aligns:[ Support.Table.Left; Support.Table.Right ] [ "name"; "n" ] in
  Support.Table.add_row t [ "a"; "1" ];
  Support.Table.add_row t [ "bb"; "22" ];
  let s = Support.Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.contains s 'n');
  (* all lines share the same width *)
  let lines = String.split_on_char '\n' s in
  let widths = List.map String.length (List.filter (fun l -> l <> "") lines) in
  let w0 = List.hd widths in
  Alcotest.(check bool) "rectangular output" true
    (List.for_all (fun w -> w = w0) widths)

let test_table_missing_cells () =
  let t = Support.Table.create [ "a"; "b"; "c" ] in
  Support.Table.add_row t [ "1" ];
  let s = Support.Table.render t in
  Alcotest.(check bool) "short rows are padded" true (String.length s > 0)

let test_err_fail_raises () =
  Alcotest.check_raises "fail raises Compile_error"
    (Support.Err.Compile_error (Support.Err.make ~pass:"x" "nope 42"))
    (fun () -> Support.Err.fail ~pass:"x" "nope %d" 42)

let test_err_guard () =
  Support.Err.guard ~pass:"g" true "fine";
  Alcotest.(check bool) "guard true passes" true true;
  match Support.Err.guard ~pass:"g" false "broken" with
  | () -> Alcotest.fail "guard false should raise"
  | exception Support.Err.Compile_error e ->
      Alcotest.(check string) "pass recorded" "g" e.Support.Err.pass

let suite =
  [
    Alcotest.test_case "namegen basic" `Quick test_namegen_basic;
    Alcotest.test_case "namegen reserve" `Quick test_namegen_reserve;
    Alcotest.test_case "namegen no collisions" `Quick test_namegen_no_collisions;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table missing cells" `Quick test_table_missing_cells;
    Alcotest.test_case "err fail raises" `Quick test_err_fail_raises;
    Alcotest.test_case "err guard" `Quick test_err_guard;
  ]
